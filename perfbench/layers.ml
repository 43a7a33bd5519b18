(* The per-layer report of the traced run. Every workload prints every
   name below, so the set is identical across workloads; a layer a
   workload never calls reports zeros.

   Each wrapped layer reports [calls], [busy_s] (total span time),
   [share] (busy time over the traced pass's wall time), [p50_ns] and
   [p99_ns] of its span durations, plus the extras listed with it. *)

let wrapped =
  [
    ( Tracer.Schedulers,
      [ ("candidates_mean", "count"); ("rush_frac", "ratio") ] );
    ( Tracer.Incr_sla_tree,
      [ ("probes_per_decision", "count"); ("rebuilds_per_decision", "count") ] );
    (Tracer.Dispatchers, [ ("candidates_mean", "count"); ("reject_frac", "ratio") ]);
    (Tracer.Tenancy, [ ("reject_frac", "ratio"); ("degrade_frac", "ratio") ]);
    (Tracer.Sim, [ ("events", "count"); ("self_s", "s") ]);
    (Tracer.Wire, [ ("encode_ns", "ns"); ("decode_ns", "ns"); ("bytes_per_query", "B") ]);
    ( Tracer.Daemon,
      [
        ("engine_ns_per_submit", "ns");
        ("engine_share", "ratio");
        ("socket_share", "ratio");
        ("inflight_max", "count");
      ] );
    ( Tracer.Loadgen,
      [
        ("late_p50_us", "us");
        ("late_p99_us", "us");
        ("decision_p50_us", "us");
        ("decision_p99_us", "us");
        ("decision_samples", "count");
        ("arrivals_per_s", "1/s");
      ] );
    ( Tracer.Parallel,
      [
        ("serial_s", "s");
        ("speedup", "ratio");
        ("cell_max_s", "s");
        ("cell_sum_s", "s");
      ] );
  ]

let unwrapped =
  [
    ( "gc",
      [
        ("peak_heap_mb", "MB");
        ("minor_words_per_query", "words");
        ("promoted_words_per_query", "words");
        ("minor_collections", "count");
        ("major_collections", "count");
      ] );
    ("obs", [ ("overhead_frac", "ratio") ]);
  ]

(* Every per-layer metric name with its unit, in report order. *)
let catalogue =
  List.concat_map
    (fun (l, extras) ->
      let p = Tracer.layer_name l ^ "." in
      List.map
        (fun (n, u) -> (p ^ n, u))
        ([ ("calls", "count"); ("busy_s", "s"); ("share", "ratio"); ("p50_ns", "ns");
           ("p99_ns", "ns") ]
        @ extras))
    wrapped
  @ List.concat_map
      (fun (l, extras) -> List.map (fun (n, u) -> (l ^ "." ^ n, u)) extras)
      unwrapped

(* [report ~agg ~wall_s values] turns the recorded spans plus the
   workload's extra values (by full metric name) into the full
   catalogue; names with no value report 0. *)
let report ~agg ~wall_s values =
  let standard =
    List.concat_map
      (fun (l, _) ->
        let s = agg.(Tracer.layer_index l) and p = Tracer.layer_name l ^ "." in
        [
          (p ^ "calls", Float.of_int s.Tracer.calls);
          (p ^ "busy_s", Measure.secs s.busy_ns);
          (p ^ "share", Measure.secs s.busy_ns /. wall_s);
          (p ^ "p50_ns", s.p50_ns);
          (p ^ "p99_ns", s.p99_ns);
        ])
      wrapped
  in
  let all = standard @ values in
  List.map
    (fun (name, u) ->
      Measure.metric name u (Option.value (List.assoc_opt name all) ~default:0.0))
    catalogue

(* Extras every simulated workload derives the same way from spans and
   counters. *)
let ratio a b = if b = 0 then 0.0 else Float.of_int a /. Float.of_int b

let calls agg l = agg.(Tracer.layer_index l).Tracer.calls

let decision_extras ~agg ~postpone_calls ~rebuilds =
  let picks = calls agg Tracer.Schedulers in
  let disp = calls agg Tracer.Dispatchers in
  let admits = calls agg Tracer.Tenancy in
  let c = Tracer.counter in
  [
    ("schedulers.candidates_mean", ratio (c Tracer.Sched_candidates) picks);
    ("schedulers.rush_frac", ratio (c Tracer.Sched_rush) picks);
    ("incr_sla_tree.probes_per_decision", ratio postpone_calls picks);
    ("incr_sla_tree.rebuilds_per_decision", ratio rebuilds picks);
    ("dispatchers.candidates_mean", ratio (c Tracer.Disp_candidates) disp);
    ("dispatchers.reject_frac", ratio (c Tracer.Disp_rejects) disp);
    ("tenancy.reject_frac", ratio (c Tracer.Admit_rejects) admits);
    ("tenancy.degrade_frac", ratio (c Tracer.Admit_degrades) admits);
  ]

(* Wrappers the traced passes install around the stack's closures. *)
let wrap_pick (pick : Sim.pick_next) : Sim.pick_next =
 fun ~now buf ->
  Tracer.enter Tracer.Schedulers;
  let i = pick ~now buf in
  Tracer.leave ~qid:buf.(i).Query.id ();
  Tracer.count Tracer.Sched_candidates (Array.length buf);
  if i <> 0 then Tracer.count Tracer.Sched_rush 1;
  i

let wrap_hook (h : Schedulers.hook) : Schedulers.hook =
 fun ~sid ~now ev ->
  let qid =
    match ev with
    | Sim.Started q | Sim.Enqueued q | Sim.Dropped q -> q.Query.id
    | Sim.Finished { query; _ } -> query.Query.id
    | _ -> -1
  in
  Tracer.enter ~qid Tracer.Incr_sla_tree;
  h ~sid ~now ev;
  Tracer.leave ()

(* No workload changes the pool mid-run, so the dispatchable count is
   read once per dispatch closure rather than scanned on every call. *)
let wrap_dispatch (d : Sim.dispatch) : Sim.dispatch =
  let cands = ref (-1) in
  fun sim q ->
    if !cands < 0 then cands := Sim.dispatchable_count sim;
    Tracer.enter ~qid:q.Query.id Tracer.Dispatchers;
    let r = d sim q in
    Tracer.leave ();
    Tracer.count Tracer.Disp_candidates !cands;
    if r.Sim.target = None then Tracer.count Tracer.Disp_rejects 1;
    r

let wrap_admit (a : Sim.admit) : Sim.admit =
 fun sim q ->
  Tracer.enter ~qid:q.Query.id Tracer.Tenancy;
  let v = a sim q in
  Tracer.leave ();
  (match v with
  | Sim.Admit -> ()
  | Sim.Degrade _ -> Tracer.count Tracer.Admit_degrades 1
  | Sim.Reject -> Tracer.count Tracer.Admit_rejects 1);
  v
