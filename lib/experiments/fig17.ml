(* Figure 17 (Sec 7.6): running time of one SLA-tree scheduling
   decision (building the SLA-tree from scratch plus asking one
   postpone question per buffered query) as a function of buffer
   length.

   The paper pushes the system to load 0.99 and sets the SLA-A
   threshold very high so that large slack trees are built; we mimic
   that by giving every buffered query a far-future deadline. *)

let default_buffer_sizes = [ 50; 100; 200; 400; 800; 1200; 1600 ]

type point = {
  buffer_len : int;
  ms_per_decision : float;  (** build + one postpone per query *)
  slack_units : int;
}

(* A buffer of [n] queries mimicking a saturated server: exponential
   sizes, arrivals in the recent past, a 2-level SLA with large bounds
   (so nearly every unit lands in the slack tree, the paper's
   worst case). *)
let make_buffer ~seed n =
  let rng = Prng.create seed in
  let mu = 20.0 in
  let sla =
    Sla.make
      ~levels:[ { bound = 1e7; gain = 2.0 }; { bound = 2e7; gain = 1.0 } ]
      ~penalty:0.0
  in
  Array.init n (fun id ->
      let size = Prng.exponential rng ~mean:mu in
      let arrival = Prng.float rng *. 100.0 in
      Query.make ~id ~arrival ~size ~sla ())

(* Every position's rush question, not [What_if.best_rush]: the far
   bounds of [make_buffer] leave every own gain at 0, so the bound in
   the pruned scan would skip every probe, and [best_rush_planned] the
   build too. *)
let decision ?arena ~now buffer =
  let tree = Sla_tree.build ?arena ~now buffer in
  for i = 0 to Array.length buffer - 1 do
    ignore (What_if.rush_net_gain tree i)
  done

let time_decision ~repeats buffer =
  let now = 200.0 in
  (* Settle the heap so GC debt from whatever ran before this
     measurement is not charged to it, then warm the allocator. *)
  Gc.compact ();
  decision ~now buffer;
  let t0 = Sys.time () in
  for _ = 1 to repeats do
    decision ~now buffer
  done;
  let t1 = Sys.time () in
  (t1 -. t0) *. 1000.0 /. Float.of_int repeats

let compute ?(buffer_sizes = default_buffer_sizes) ~seed () =
  (* Buffer construction and the slack-unit count are deterministic and
     independent per point, so they fan out across the ambient pool.
     The timing loop stays serial: [Sys.time] measures process-wide
     CPU, so concurrent timing runs would charge each other's work to
     every measurement. *)
  let prepared =
    Parallel.map_list
      (fun n ->
        let buffer = make_buffer ~seed n in
        let tree = Sla_tree.build ~now:200.0 buffer in
        let slack_units, _ = Sla_tree.unit_counts tree in
        (n, buffer, slack_units))
      buffer_sizes
  in
  List.map
    (fun (n, buffer, slack_units) ->
      let repeats = max 3 (2000 / n) in
      let ms = time_decision ~repeats buffer in
      { buffer_len = n; ms_per_decision = ms; slack_units })
    prepared

let export ?buffer_sizes ~dir ~seed () =
  let points = compute ?buffer_sizes ~seed () in
  let path = Filename.concat dir "fig17.dat" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# buffer_len slack_units ms_per_decision\n";
      List.iter
        (fun p ->
          Printf.fprintf oc "%d %d %.17g\n" p.buffer_len p.slack_units
            p.ms_per_decision)
        points);
  path

let run ppf ~seed () =
  let points = compute ~seed () in
  Fmt.pf ppf
    "@.=== Figure 17: SLA-tree build+query time vs buffer length ===@.";
  Fmt.pf ppf "%8s %12s %16s@." "queries" "slack units" "ms/decision";
  List.iter
    (fun p ->
      Fmt.pf ppf "%8d %12d %16.4f@." p.buffer_len p.slack_units p.ms_per_decision)
    points;
  (* The paper's claim: near-linear growth in the buffer length and
     sub-millisecond decisions for hundreds of queries. *)
  match (points, List.rev points) with
  | p0 :: _, plast :: _ when p0.buffer_len > 0 && p0.ms_per_decision > 0.0 ->
    let time_ratio = plast.ms_per_decision /. p0.ms_per_decision in
    let size_ratio =
      Float.of_int plast.buffer_len /. Float.of_int p0.buffer_len
    in
    Fmt.pf ppf
      "size grew %.0fx, time grew %.1fx (linearithmic growth expected)@."
      size_ratio time_ratio
  | _ -> ()
