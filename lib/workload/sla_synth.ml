(* SLA synthesis over real traces (see sla_synth.mli for the mapping).

   Determinism contract: the same (file, classes, stretches,
   time_scale, load_factor, seed) produce bit-identical queries,
   however the stream is consumed (one pull at a time, bounded chunks,
   or eagerly). The class draw is keyed on the query index through
   [Prng.split_key], so it depends only on (seed, index) — not on
   chunk boundaries and not on how many tiles precede the query. *)

type sla_class = {
  cls_name : string;
  weight : int;
  gains : float array;
  penalty : float;
}

type config = {
  classes : sla_class array;
  stretches : float array;
  time_scale : float;
  load_factor : float;
  seed : int;
}

(* Default tiers, in the spirit of the paper's SLA-B (a small premium
   class, a broad cheap class): gold pays 5 on-time and a real
   penalty, bronze is best-effort. Bounds come from the job's own
   requested time, so "on time" means "within stretch x what the user
   asked for". *)
let default_classes =
  [|
    { cls_name = "gold"; weight = 1; gains = [| 5.0; 2.0 |]; penalty = 5.0 };
    { cls_name = "silver"; weight = 3; gains = [| 2.0; 1.0 |]; penalty = 1.0 };
    { cls_name = "bronze"; weight = 6; gains = [| 1.0; 0.5 |]; penalty = 0.0 };
  |]

let default_stretches = [| 1.0; 3.0 |]

let validate cfg =
  if Array.length cfg.classes = 0 then
    invalid_arg "Sla_synth: need at least one SLA class";
  if Array.length cfg.stretches = 0 then
    invalid_arg "Sla_synth: need at least one stretch tier";
  Array.iteri
    (fun i s ->
      if not (Float.is_finite s && s > 0.0) then
        invalid_arg "Sla_synth: stretches must be positive and finite";
      if i > 0 && s <= cfg.stretches.(i - 1) then
        invalid_arg "Sla_synth: stretches must be strictly increasing")
    cfg.stretches;
  Array.iter
    (fun c ->
      if c.weight <= 0 then
        invalid_arg
          (Printf.sprintf "Sla_synth: class %s: weight must be positive"
             c.cls_name);
      if Array.length c.gains <> Array.length cfg.stretches then
        invalid_arg
          (Printf.sprintf
             "Sla_synth: class %s: %d gains for %d stretch tiers" c.cls_name
             (Array.length c.gains)
             (Array.length cfg.stretches));
      if c.penalty < 0.0 then
        invalid_arg
          (Printf.sprintf "Sla_synth: class %s: negative penalty" c.cls_name);
      Array.iteri
        (fun i g ->
          if not (Float.is_finite g && g > 0.0) then
            invalid_arg
              (Printf.sprintf "Sla_synth: class %s: gains must be positive"
                 c.cls_name);
          if i > 0 && g >= c.gains.(i - 1) then
            invalid_arg
              (Printf.sprintf
                 "Sla_synth: class %s: gains must be strictly decreasing"
                 c.cls_name))
        c.gains)
    cfg.classes;
  if not (Float.is_finite cfg.time_scale && cfg.time_scale > 0.0) then
    invalid_arg "Sla_synth: time_scale must be positive";
  if not (Float.is_finite cfg.load_factor && cfg.load_factor > 0.0) then
    invalid_arg "Sla_synth: load_factor must be positive"

let config ?(classes = default_classes) ?(stretches = default_stretches)
    ?(time_scale = 1.0) ?(load_factor = 1.0) ?(seed = 1) () =
  let cfg = { classes; stretches; time_scale; load_factor; seed } in
  validate cfg;
  cfg

(* "gold:1:5,2:5;silver:3:2,1:1" — name:weight:gains:penalty. *)
let classes_doc =
  "semicolon-separated name:weight:g1,g2,...:penalty entries, one gain per \
   stretch tier, e.g. 'gold:1:5,2:5;silver:3:2,1:1;bronze:6:1,0.5:0'"

let classes_of_string s =
  let ( let* ) r f = Result.bind r f in
  let float_of name v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok f
    | Some _ | None -> Error (Printf.sprintf "bad %s: %S" name v)
  in
  let parse_one entry =
    match String.split_on_char ':' (String.trim entry) with
    | [ name; weight; gains; penalty ] ->
      let* weight =
        match int_of_string_opt weight with
        | Some w when w > 0 -> Ok w
        | Some _ | None -> Error (Printf.sprintf "bad weight: %S" weight)
      in
      let* gains =
        String.split_on_char ',' gains
        |> List.fold_left
             (fun acc g ->
               let* acc = acc in
               let* g = float_of "gain" g in
               Ok (g :: acc))
             (Ok [])
        |> Result.map (fun l -> Array.of_list (List.rev l))
      in
      let* penalty = float_of "penalty" penalty in
      Ok { cls_name = name; weight; gains; penalty }
    | _ ->
      Error
        (Printf.sprintf "bad class %S (expected name:weight:gains:penalty)"
           entry)
  in
  String.split_on_char ';' s
  |> List.filter (fun e -> String.trim e <> "")
  |> List.fold_left
       (fun acc e ->
         let* acc = acc in
         let* c = parse_one e in
         Ok (c :: acc))
       (Ok [])
  |> Result.map (fun l -> Array.of_list (List.rev l))
  |> function
  | Ok [||] -> Error "empty class spec"
  | r -> r

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  mutable read : int;
  mutable kept : int;
  mutable dropped : int;
  mutable clamped : int;
  mutable no_estimate : int;
  mutable span_ms : float;
  mutable work_ms : float;
  mutable est_work_ms : float;
  mutable max_size_ms : float;
}

let stats_create () =
  {
    read = 0;
    kept = 0;
    dropped = 0;
    clamped = 0;
    no_estimate = 0;
    span_ms = 0.0;
    work_ms = 0.0;
    est_work_ms = 0.0;
    max_size_ms = 0.0;
  }

let mean_size s =
  if s.kept = 0 then Float.nan else s.work_ms /. Float.of_int s.kept

let implied_load s ~servers =
  if servers <= 0 then invalid_arg "Sla_synth.implied_load: servers <= 0";
  if s.span_ms <= 0.0 then Float.nan
  else s.work_ms /. (s.span_ms *. Float.of_int servers)

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>jobs: %d read, %d kept, %d dropped, %d clamped, %d without \
     estimate@,span: %.0f ms, work %.0f ms (est %.0f ms), mean size %.1f \
     ms, max %.0f ms@]"
    s.read s.kept s.dropped s.clamped s.no_estimate s.span_ms s.work_ms
    s.est_work_ms (mean_size s) s.max_size_ms

(* ------------------------------------------------------------------ *)
(* The mapping *)

(* Weighted class draw, keyed on the query index: [split_key] does not
   advance the master, so the draw for index i is independent of every
   other draw and of chunking. *)
let pick_class cfg master ~index =
  let total = Array.fold_left (fun a c -> a + c.weight) 0 cfg.classes in
  let d = Prng.int (Prng.split_key master ~key:index) total in
  let rec go i acc =
    let acc = acc + cfg.classes.(i).weight in
    if d < acc then cfg.classes.(i) else go (i + 1) acc
  in
  go 0 0

let sla_of cfg cls ~est =
  let n = Array.length cfg.stretches in
  let bounds = Array.create_float n and gains = Array.create_float (n + 1) in
  for k = 0 to n - 1 do
    bounds.(k) <- cfg.stretches.(k) *. est;
    gains.(k) <- cls.gains.(k)
  done;
  Sla.of_array ~bounds ~gains ~penalty:cls.penalty

(* Per-stream synthesis state. [t0] rebases each pass to 0; [last]
   enforces monotone arrivals across clamps and tile boundaries;
   [offset] shifts pass k so the trace repeats seamlessly. *)
type synth = {
  cfg : config;
  master : Prng.t;
  st : stats;
  mutable index : int;
  mutable t0 : float;  (** first kept submit of the current pass *)
  mutable have_t0 : bool;
  mutable last : float;  (** last emitted arrival *)
  mutable offset : float;
  mutable pass_kept : int;
}

let synth_create cfg ?stats () =
  validate cfg;
  {
    cfg;
    master = Prng.create cfg.seed;
    st = (match stats with Some s -> s | None -> stats_create ());
    index = 0;
    t0 = 0.0;
    have_t0 = false;
    last = 0.0;
    offset = 0.0;
    pass_kept = 0;
  }

let keepable (j : Swf.job) =
  Float.is_finite j.Swf.submit
  && j.Swf.submit >= 0.0
  && Float.is_finite j.Swf.run_time
  && j.Swf.run_time > 0.0

let emit sy (j : Swf.job) =
  let cfg = sy.cfg in
  sy.st.read <- sy.st.read + 1;
  if not (keepable j) then begin
    sy.st.dropped <- sy.st.dropped + 1;
    None
  end
  else begin
    if not sy.have_t0 then begin
      sy.t0 <- j.Swf.submit;
      sy.have_t0 <- true
    end;
    let raw =
      sy.offset
      +. (j.Swf.submit -. sy.t0) *. cfg.time_scale /. cfg.load_factor
    in
    let arrival =
      if raw < sy.last then begin
        sy.st.clamped <- sy.st.clamped + 1;
        sy.last
      end
      else raw
    in
    let size = j.Swf.run_time *. cfg.time_scale in
    let est =
      if Float.is_finite j.Swf.req_time && j.Swf.req_time > 0.0 then
        j.Swf.req_time *. cfg.time_scale
      else begin
        sy.st.no_estimate <- sy.st.no_estimate + 1;
        size
      end
    in
    let cls = pick_class cfg sy.master ~index:sy.index in
    let q =
      Query.make ~id:sy.index ~arrival ~size ~est_size:est
        ~sla:(sla_of cfg cls ~est) ()
    in
    sy.index <- sy.index + 1;
    sy.last <- arrival;
    sy.pass_kept <- sy.pass_kept + 1;
    sy.st.kept <- sy.st.kept + 1;
    sy.st.span_ms <- arrival;
    sy.st.work_ms <- sy.st.work_ms +. size;
    sy.st.est_work_ms <- sy.st.est_work_ms +. est;
    if size > sy.st.max_size_ms then sy.st.max_size_ms <- size;
    Some q
  end

(* A tile boundary: the next pass starts one mean inter-arrival after
   the last emitted arrival, so the tiled trace keeps the pass's
   arrival rate instead of stacking a burst at the seam. *)
let end_pass sy =
  let gap =
    if sy.pass_kept > 1 then (sy.last -. sy.offset) /. Float.of_int sy.pass_kept
    else sy.cfg.time_scale
  in
  sy.offset <- sy.last +. gap;
  sy.have_t0 <- false;
  sy.pass_kept <- 0

let queries_of_jobs cfg ?stats jobs =
  let sy = synth_create cfg ?stats () in
  let out = ref [] in
  Array.iter
    (fun j -> match emit sy j with Some q -> out := q :: !out | None -> ())
    jobs;
  Array.of_list (List.rev !out)

let stream cfg ?(tiles = 1) ?max_jobs ?stats ~path () =
  if tiles < 1 then invalid_arg "Sla_synth.stream: tiles must be >= 1";
  (match max_jobs with
  | Some m when m < 1 -> invalid_arg "Sla_synth.stream: max_jobs must be >= 1"
  | _ -> ());
  let sy = synth_create cfg ?stats () in
  let budget_left () =
    match max_jobs with Some m -> sy.index < m | None -> true
  in
  (* One live reader at a time; each tile is a fresh pass over the
     file. The sequence owns the handle — abandoning it mid-way leaks
     the fd until GC, which is why the interface says consume once to
     exhaustion (every in-repo consumer does). *)
  let rec pass tile reader () =
    if not (budget_left ()) then begin
      Swf.close reader;
      Seq.Nil
    end
    else
      match Swf.next reader with
      | Some j -> (
        match emit sy j with
        | Some q -> Seq.Cons (q, pass tile reader)
        | None -> pass tile reader ())
      | None ->
        Swf.close reader;
        end_pass sy;
        next_tile (tile + 1) ()
  and next_tile tile () =
    if tile >= tiles || not (budget_left ()) then Seq.Nil
    else pass tile (Swf.open_file path) ()
  in
  next_tile 0

let to_queries cfg ?tiles ?max_jobs ?stats ~path () =
  Array.of_seq (stream cfg ?tiles ?max_jobs ?stats ~path ())
