(* The in-process simulator workloads, burst and farm, and the session
   pass the grid reuses.

   Both run the CLI's default policy pair (scheduler fcfs+tree-incr,
   dispatcher tree-fcfs) through a [Sim.session], one [Sim.inject] per
   query — exactly the arrival path [Sim.run] takes — so the benchmark
   can time each arrival from outside: a query's decision latency is
   the wall time from handing it to the stack until its dispatch
   decision is made. *)

type pass = {
  wall_s : float;
  lat_us : float array;  (** per-arrival wall microseconds *)
  metrics : Metrics.t;
  obs : Obs.t;  (** enabled only on traced passes (probe counters) *)
}

(* One pass of [queries] through a fresh decision stack. A traced pass
   wraps every layer closure in spans and enables the scheduler's
   [Obs] counters; the caller opens the enclosing span. *)
let session_pass ?(traced = false) ?admit ~scheduler ~dispatcher ~n_servers
    ~warmup queries =
  let metrics = Metrics.create ~warmup_id:warmup () in
  let obs = if traced then Obs.create ~trace_capacity:0 () else Obs.noop in
  let lat = Array.make (Array.length queries) 0.0 in
  let t0 = Measure.now_ns () in
  let pick_next, hook = Schedulers.instantiate ~obs scheduler in
  let dispatch = Dispatchers.instantiate dispatcher in
  let sess =
    if traced then
      Sim.session
        ?admit:(Option.map Layers.wrap_admit admit)
        ?on_server_event:(Option.map Layers.wrap_hook hook)
        ~n_servers ~pick_next:(Layers.wrap_pick pick_next)
        ~dispatch:(Layers.wrap_dispatch dispatch) ~metrics ()
    else Sim.session ?admit ?on_server_event:hook ~n_servers ~pick_next ~dispatch ~metrics ()
  in
  Array.iteri
    (fun i q ->
      let a = Measure.now_ns () in
      if traced then
        Tracer.span ~qid:q.Query.id Tracer.Sim (fun () -> Sim.inject sess q)
      else Sim.inject sess q;
      lat.(i) <- Float.of_int (Measure.now_ns () - a) /. 1e3)
    queries;
  if traced then Tracer.span Tracer.Sim (fun () -> Sim.drain sess)
  else Sim.drain sess;
  { wall_s = Measure.secs (Measure.now_ns () - t0); lat_us = lat; metrics; obs }

(* The library's batch path over the same inputs: the reference every
   measured pass must match bit for bit. *)
let reference ?admit ~scheduler ~dispatcher ~n_servers ~warmup queries =
  let metrics = Metrics.create ~warmup_id:warmup () in
  let pick_next, hook = Schedulers.instantiate scheduler in
  Sim.run ?admit ?on_server_event:hook ~queries ~n_servers ~pick_next
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  metrics

type spec = {
  servers : int;
  n_queries : int;
  generate : seed:int -> Query.t array;
}

let trace_cfg ~load ~servers ~n_queries ~seed =
  Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load ~servers
    ~n_queries ~seed ()

(* Flash crowds: square-wave Poisson arrivals between 0.5x and 2.0x a
   base load of 0.8 with a 40% duty cycle (mean load 0.88). Each burst
   lasts long enough to queue hundreds of queries, the paper's Fig 17
   regime, so the rush scan over the live tree dominates. *)
let burst =
  let servers = 4 and n_queries = 96_000 in
  {
    servers;
    n_queries;
    generate =
      (fun ~seed ->
        let cfg = trace_cfg ~load:0.8 ~servers ~n_queries ~seed in
        let period = 1000.0 /. Trace.arrival_rate cfg in
        Bursty.generate cfg (Bursty.square ~period ~duty:0.4 ~low:0.5 ~high:2.0));
  }

(* A large steady farm: Poisson at load 0.9 over 64 servers. Buffers
   stay about one deep, so per-arrival dispatch over every server and
   the per-event tree upkeep dominate. *)
let farm =
  let servers = 64 and n_queries = 100_000 in
  {
    servers;
    n_queries;
    generate = (fun ~seed -> Trace.generate (trace_cfg ~load:0.9 ~servers ~n_queries ~seed));
  }

let scheduler = Schedulers.fcfs_sla_tree_incr
let dispatcher () = Dispatchers.fcfs_sla_tree_incr ()

let run spec ~seed ~seconds ~trace =
  let warmup = spec.n_queries / 10 in
  let c = Measure.checks () in
  let queries, setup_s =
    Measure.repeat_setup 9 (fun () ->
        let q = spec.generate ~seed in
        (* bring-up: the stack a pass instantiates before its first query *)
        ignore (Schedulers.instantiate scheduler);
        let (_ : Sim.dispatch) = Dispatchers.instantiate (dispatcher ()) in
        q)
  in
  let n = Array.length queries in
  let pass ?traced () =
    session_pass ?traced ~scheduler ~dispatcher:(dispatcher ()) ~n_servers:spec.servers
      ~warmup queries
  in
  let reference () =
    reference ~scheduler ~dispatcher:(dispatcher ()) ~n_servers:spec.servers ~warmup
      queries
  in
  Gc.full_major ();
  if not trace then begin
    (* Keep only what the checks and metrics need, so the heap does not
       grow with the number of passes. *)
    let host = Measure.host () in
    let ps =
      Measure.passes ~host ~seconds ~min_passes:3 (fun () ->
          let p = pass () in
          ( p.wall_s,
            Measure.percentile p.lat_us 0.5,
            Measure.fingerprint p.metrics,
            Measure.conserved p.metrics,
            Metrics.avg_loss p.metrics ))
    in
    let _, _, fp, conserved, loss = List.hd ps in
    let metrics, notes =
      Measure.end_to_end ~host ~work:(n * List.length ps)
        ~walls:(List.map (fun (w, _, _, _, _) -> w) ps)
        ~p50s_us:(List.map (fun (_, l, _, _, _) -> l) ps)
        ~loss ~setup_s
    in
    Measure.check c "conservation" conserved;
    Measure.check c "passes_identical" (List.for_all (fun (_, _, f, _, _) -> f = fp) ps);
    Measure.check c "session_equals_sim_run" (Measure.fingerprint (reference ()) = fp);
    let failures = Measure.failures c in
    {
      Measure.attempted = n * List.length ps;
      failed = List.length failures;
      failures;
      metrics;
      notes;
    }
  end
  else begin
    (* Alternate untraced and traced passes; the per-layer report reads
       the last traced pass's spans, the overhead the median walls. *)
    let untraced = ref [] and traced = ref [] and gc = ref None in
    let budget = int_of_float (seconds *. 1e9) and t0 = Measure.now_ns () in
    while !traced = [] || Measure.now_ns () - t0 < budget do
      let p, d = Measure.gc_around (fun () -> pass ()) in
      untraced := p :: !untraced;
      if !gc = None then gc := Some d;
      Tracer.reset ();
      let tp = Tracer.span Tracer.Pass (fun () -> pass ~traced:true ()) in
      traced := tp :: !traced
    done;
    let tp = List.hd !traced and up = List.hd !untraced in
    let fp = Measure.fingerprint up.metrics in
    Measure.check c "conservation" (Measure.conserved up.metrics);
    Measure.check c "traced_equals_untraced" (Measure.fingerprint tp.metrics = fp);
    Measure.check c "session_equals_sim_run" (Measure.fingerprint (reference ()) = fp);
    let agg = Tracer.aggregate () in
    let reg = Obs.registry tp.obs in
    let counter name = Obs.Registry.count (Obs.Registry.counter reg name) in
    let wall l = Measure.median (Array.of_list (List.map (fun p -> p.wall_s) l)) in
    let m = tp.metrics in
    let values =
      Layers.decision_extras ~agg ~postpone_calls:(counter "whatif.postpone_calls")
        ~rebuilds:(counter "sla_tree.rebuilds")
      @ [
          ( "sim.events",
            Float.of_int
              (Metrics.offered_count m + Metrics.completed_count m + Metrics.dropped_count m)
          );
          ("sim.self_s", Measure.secs agg.(Tracer.layer_index Tracer.Sim).Tracer.self_ns);
          ("obs.overhead_frac", (wall !traced /. wall !untraced) -. 1.0);
        ]
      @ List.map
          (fun mt -> (mt.Measure.name, mt.Measure.value))
          (Measure.gc_metrics ~queries:n (Option.get !gc))
    in
    let failures = Measure.failures c in
    {
      Measure.attempted = n * (List.length !untraced + List.length !traced);
      failed = List.length failures;
      failures;
      metrics = Layers.report ~agg ~wall_s:tp.wall_s values;
      notes = [];
    }
  end
