(* Flat vs boxed SLA-tree: the flat arena-backed layout must be
   BIT-identical to [Cascade_tree] — same sort permutation, same merge
   float order, same probe accumulation order — so every comparison
   here is on raw float bits, not within a tolerance.

   The generators are adversarial on purpose: quantized keys force
   exact duplicates that straddle subtree boundaries (the split of two
   equal boundary keys IS that key), tau is drawn exactly from the key
   set (the Lt/Le edges), and units optionally share uids so descendant
   lists merge duplicate ids. *)

let check_int = Alcotest.(check int)

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits name a b =
  if not (bits_eq a b) then
    Alcotest.failf "%s: %h <> %h" name a b

(* ------------------------------------------------------------------ *)
(* Cascade-level fuzz over raw unit arrays. *)

(* Unit counts at the seams of the build's merge sort: one unit, one
   short of a run, a run, one past it, one past two runs (a lone unit
   in the last merge), and a count above four runs that is no power of
   two (a partial run at every merge width). *)
let run = Flat_sla_tree.run_length
let small_seams = [ 1; run - 1; run; run + 1 ]
let large_seams = [ (2 * run) + 1; (4 * run) + 13 ]

(* Adversarial unit arrays of [m] units. Keys come from a small
   quantized pool (a single value, at worst) so exact duplicates are
   common; uids are distinct per unit, or shared in pairs (then the
   pair's keys are forced apart so (key, uid) stays a strict total
   order — the invariant real expansions guarantee, since a query's
   unit slacks strictly increase). *)
let gen_units_of m =
  QCheck.Gen.(
    let* k = 1 -- 6 in
    let* raw_pool = array_repeat k (float_range (-50.0) 50.0) in
    let pool = Array.map (fun x -> Float.round (x *. 4.0) /. 4.0) raw_pool in
    let* idxs = array_repeat m (0 -- (k - 1)) in
    let* gains = array_repeat m (float_range 0.25 8.0) in
    let* dup_uids = bool in
    let units =
      Array.init m (fun i ->
          let uid = if dup_uids then i / 2 else i in
          let slack =
            (* Force a shared-uid pair's KEYS apart by value — the pool
               may hold the same quantized value at two indices, and an
               equal (key, uid) pair would make the sort comparator a
               non-total order (boxed Array.sort and the flat merge sort
               could then order the pair's gains differently). *)
            let s = pool.(idxs.(i)) in
            if dup_uids && i land 1 = 1 && s = pool.(idxs.(i - 1)) then
              s +. 0.25
            else s
          in
          { Slack_units.uid; slack; gain = gains.(i) })
    in
    return units)

(* (units, n, tau): n spans the uid range with both edges, tau is an
   exact key or an epsilon/quarter-step perturbation of one. *)
let gen_case_of m =
  QCheck.Gen.(
    let* units = gen_units_of m in
    let max_uid =
      Array.fold_left (fun acc u -> max acc u.Slack_units.uid) 0 units
    in
    let* n = -1 -- (max_uid + 1) in
    let* ti = 0 -- (m - 1) in
    let* perturb = oneofl [ 0.0; 0.0; 0.0; 1e-9; -1e-9; 0.25; -0.25 ] in
    return (units, n, units.(ti).Slack_units.slack +. perturb))

let gen_case =
  QCheck.Gen.(
    let* m = oneof [ 1 -- 48; oneofl (small_seams @ large_seams) ] in
    gen_case_of m)

let print_case (units, n, tau) =
  Fmt.str "n=%d tau=%h@ [@[%a@]]" n tau
    Fmt.(
      array ~sep:semi (fun ppf u ->
          Fmt.pf ppf "(uid %d, slack %h, gain %h)" u.Slack_units.uid
            u.Slack_units.slack u.Slack_units.gain))
    units

(* The flat cascade over the same units: [Flat_sla_tree.of_units]
   takes them as plain (key, uid, gain) triples. *)
let flat_of_units arena units =
  Flat_sla_tree.of_units arena
    (Array.map (fun u -> Slack_units.(u.slack, u.uid, u.gain)) units)

(* The flat cascade over [units], built into [arena], answers like the
   boxed one, bit for bit. *)
let cascade_matches_boxed arena (units, n, tau) =
  let boxed = Cascade_tree.build units in
  let flat = flat_of_units arena units in
  Flat_sla_tree.unit_count flat = Cascade_tree.unit_count boxed
  && Flat_sla_tree.depth flat = Cascade_tree.depth boxed
  && bits_eq (Cascade_tree.total boxed) (Flat_sla_tree.total flat)
  && bits_eq
       (Cascade_tree.prefix_total boxed ~n)
       (Flat_sla_tree.prefix_total flat ~n)
  && List.for_all
       (fun mode ->
         bits_eq
           (Cascade_tree.prefix_loss boxed mode ~n ~tau)
           (Flat_sla_tree.prefix_loss flat mode ~n ~tau))
       [ Cascade_tree.Lt; Cascade_tree.Le ]

let prop_flat_cascade_matches_boxed =
  QCheck.Test.make ~name:"flat cascade == boxed cascade (bitwise)" ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun case -> cascade_matches_boxed (Flat_sla_tree.create_arena ()) case)

let prop_arena_seams_large_small_large =
  (* One arena through a build past several runs, one within a run
     (the merge scratch is left as it is), then past several runs
     again. *)
  QCheck.Test.make ~name:"arena rebuilds large -> small -> large (bitwise)"
    ~count:300
    (QCheck.make
       ~print:(fun cases -> String.concat "\n" (List.map print_case cases))
       QCheck.Gen.(
         let* large = oneofl large_seams in
         let* small = oneofl small_seams in
         let* large' = oneofl large_seams in
         flatten_l (List.map gen_case_of [ large; small; large' ])))
    (fun cases ->
      let arena = Flat_sla_tree.create_arena () in
      List.for_all (cascade_matches_boxed arena) cases)

let test_flat_cascade_empty () =
  let arena = Flat_sla_tree.create_arena () in
  let flat = Flat_sla_tree.of_units arena [||] in
  check_int "no units" 0 (Flat_sla_tree.unit_count flat);
  check_int "depth 0" 0 (Flat_sla_tree.depth flat);
  check_bits "loss" 0.0
    (Flat_sla_tree.prefix_loss flat Cascade_tree.Lt ~n:5 ~tau:10.0);
  check_bits "total" 0.0 (Flat_sla_tree.total flat)

let test_flat_cascade_paper_example () =
  (* Fig 7's g/0 example: postpone(1, 9, 32) = 300. *)
  let leaves =
    [ (11, 10.0, 100.0); (5, 20.0, 200.0); (3, 30.0, 100.0); (7, 40.0, 300.0);
      (1, 50.0, 100.0); (15, 60.0, 100.0); (13, 70.0, 200.0); (9, 80.0, 100.0) ]
  in
  let units =
    Array.of_list
      (List.map (fun (uid, slack, gain) -> { Slack_units.uid; slack; gain }) leaves)
  in
  let arena = Flat_sla_tree.create_arena () in
  let flat = flat_of_units arena units in
  check_bits "postpone(1,9,32)" 300.0
    (Flat_sla_tree.prefix_loss flat Cascade_tree.Lt ~n:9 ~tau:32.0);
  check_bits "grand total" 1200.0 (Flat_sla_tree.total flat)

(* ------------------------------------------------------------------ *)
(* Facade-level fuzz: whole SLA-trees (S+ and S-) over random buffers,
   the flat facade vs a boxed one built here from [Cascade_tree],
   including arena reuse across rebuilds. *)

(* The questions the battery asks, answered by one facade. *)
type probes = {
  postpone : m:int -> n:int -> tau:float -> float;
  expedite : m:int -> n:int -> tau:float -> float;
  at_stake : n:int -> float;
  recoverable : n:int -> float;
  totals : float * float;
  counts : int * int;
}

let flat_probes tree =
  {
    postpone = Sla_tree.postpone tree;
    expedite = Sla_tree.expedite tree;
    at_stake = Sla_tree.profit_at_stake tree;
    recoverable = Sla_tree.recoverable_profit tree;
    totals =
      ( Sla_tree.total_profit_at_stake tree,
        Sla_tree.total_recoverable_profit tree );
    counts = Sla_tree.unit_counts tree;
  }

(* The boxed facade the flat layout replaced: the same expansion,
   partition and range arithmetic over [Cascade_tree], kept here as the
   oracle. *)
let boxed_probes entries =
  let pos, neg = Slack_units.partition (Slack_units.of_schedule entries) in
  let slack = Cascade_tree.build pos and tardy = Cascade_tree.build neg in
  let prefix c mode ~n ~tau =
    if n < 0 then 0.0 else Cascade_tree.prefix_loss c mode ~n ~tau
  in
  let range c mode ~m ~n ~tau =
    if tau = 0.0 then 0.0
    else prefix c mode ~n ~tau -. prefix c mode ~n:(m - 1) ~tau
  in
  let total c ~n = if n < 0 then 0.0 else Cascade_tree.prefix_total c ~n in
  {
    postpone = range slack Cascade_tree.Lt;
    expedite = range tardy Cascade_tree.Le;
    at_stake = total slack;
    recoverable = total tardy;
    totals = (Cascade_tree.total slack, Cascade_tree.total tardy);
    counts = (Cascade_tree.unit_count slack, Cascade_tree.unit_count tardy);
  }

let gen_sla =
  QCheck.Gen.(
    let* n = 1 -- 3 in
    let* raw_bounds = list_repeat (n + 2) (float_range 1.0 150.0) in
    let* raw_gains = list_repeat (n + 2) (float_range 0.5 8.0) in
    let* penalty = float_range 0.0 4.0 in
    let bounds = List.sort_uniq Float.compare raw_bounds in
    let gains = List.rev (List.sort_uniq Float.compare raw_gains) in
    let k = min n (min (List.length bounds) (List.length gains)) in
    let levels =
      List.init k (fun i ->
          { Sla.bound = List.nth bounds i; gain = List.nth gains i })
    in
    return (Sla.make ~levels ~penalty))

let gen_query id =
  QCheck.Gen.(
    let* arrival = float_range 0.0 120.0 in
    let* size = float_range 0.1 40.0 in
    let* sla = gen_sla in
    return (Query.make ~id ~arrival ~size ~sla ()))

let gen_buffer =
  QCheck.Gen.(
    let* n = 0 -- 30 in
    let* queries = flatten_l (List.init n gen_query) in
    return (Array.of_list queries))

let arb_buffer =
  QCheck.make
    ~print:(fun qs -> Fmt.str "@[<v>%a@]" Fmt.(array ~sep:cut Query.pp) qs)
    gen_buffer

let now = 100.0

(* Probe a facade over [entries] on a fixed battery of questions:
   full-range and split-range postpones/expedites at taus including
   exact unit slacks (tau drawn from the buffer's own schedule), the
   two shapes [What_if] asks (every rush prefix postpone(0, i-1, est_i)
   and every insertion suffix postpone(pos, n-1, tau)), plus the
   stake/recovery accumulators. *)
let probe_battery entries p =
  let n = Array.length entries in
  let qs = [ fst p.totals; snd p.totals ] in
  if n = 0 then qs
  else begin
    let taus =
      (* exact slack values of the first entry's components land on the
         Lt/Le edges *)
      let e = entries.(0) in
      Array.to_list
        (Array.map
           (fun bound -> Float.abs (Schedule.slack e ~bound))
           (Sla.comp_bounds e.Schedule.query.Query.sla))
      @ [ 0.0; 1.0; 7.5; 133.25 ]
    in
    let mid = n / 2 in
    let rush_prefixes =
      List.init (n - 1) (fun i ->
          let est = entries.(i + 1).Schedule.query.Query.est_size in
          p.postpone ~m:0 ~n:i ~tau:est)
    in
    let insertion_suffixes tau =
      List.init n (fun pos -> p.postpone ~m:pos ~n:(n - 1) ~tau)
    in
    List.concat_map
      (fun tau ->
        [
          p.postpone ~m:0 ~n:(n - 1) ~tau;
          p.expedite ~m:0 ~n:(n - 1) ~tau;
          p.postpone ~m:mid ~n:(n - 1) ~tau;
          p.expedite ~m:0 ~n:mid ~tau;
        ]
        @ insertion_suffixes tau)
      taus
    @ rush_prefixes
    @ [ p.at_stake ~n:mid; p.recoverable ~n:mid ]
    @ qs
  end

let batteries_eq a b =
  List.length a = List.length b && List.for_all2 bits_eq a b

let prop_facade_flat_matches_boxed =
  QCheck.Test.make ~name:"Sla_tree flat == boxed (bitwise)" ~count:500
    arb_buffer
    (fun qs ->
      let entries = Schedule.of_queries ~now qs in
      let boxed = boxed_probes entries in
      let flat = flat_probes (Sla_tree.build ~now qs) in
      flat.counts = boxed.counts
      && batteries_eq
           (probe_battery entries boxed)
           (probe_battery entries flat))

let prop_arena_reuse_matches_fresh =
  (* Rebuilding through ONE arena must answer exactly like fresh
     builds, buffer after buffer — growth, cursor resets and stale
     storage reuse included. *)
  QCheck.Test.make ~name:"arena rebuilds == fresh builds (bitwise)" ~count:100
    (QCheck.make
       ~print:(fun bufs ->
         Fmt.str "%d buffers" (List.length bufs))
       QCheck.Gen.(list_size (1 -- 6) gen_buffer))
    (fun bufs ->
      let arena = Sla_tree.create_arena () in
      List.for_all
        (fun qs ->
          let entries = Schedule.of_queries ~now qs in
          let reused = flat_probes (Sla_tree.build ~arena ~now qs) in
          batteries_eq
            (probe_battery entries (boxed_probes entries))
            (probe_battery entries reused))
        bufs)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "flat"
    [
      ( "cascade",
        [
          Alcotest.test_case "empty" `Quick test_flat_cascade_empty;
          Alcotest.test_case "paper example" `Quick test_flat_cascade_paper_example;
          qtest prop_flat_cascade_matches_boxed;
          qtest prop_arena_seams_large_small_large;
        ] );
      ( "facade",
        [
          qtest prop_facade_flat_matches_boxed;
          qtest prop_arena_reuse_matches_fresh;
        ] );
    ]
