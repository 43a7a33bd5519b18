(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks of the SLA-tree primitives
   (Fig 17's subject): full build, one postpone question, a whole
   scheduling decision, and the O(N)-per-question naive baseline the
   data structure replaces.

   Part 2 — regeneration of every table and figure of the paper's
   evaluation (Tables 2-7, Figures 15 and 17). Scale is controlled by
   SLATREE_SCALE (see Exp_scale): "smoke" | "default" | "paper". *)

open Bechamel
open Toolkit

let sizes = [ 100; 500; 1000; 2000 ]
let now = 200.0

let buffer_of n = Fig17.make_buffer ~seed:42 n

let build_tests =
  (* Steady-state dispatcher shape: one arena reused across rebuilds,
     so the measured cost is sort+cascade work, not allocation. *)
  Test.make_indexed ~name:"sla_tree.build" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let buffer = buffer_of n in
      let arena = Sla_tree.create_arena () in
      Staged.stage (fun () -> ignore (Sla_tree.build ~arena ~now buffer)))

let postpone_tests =
  Test.make_indexed ~name:"sla_tree.postpone" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let buffer = buffer_of n in
      let tree = Sla_tree.build ~now buffer in
      let tau = 50.0 in
      Staged.stage (fun () -> ignore (Sla_tree.postpone tree ~m:0 ~n:(n - 1) ~tau)))

let naive_postpone_tests =
  Test.make_indexed ~name:"naive.postpone" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let buffer = buffer_of n in
      let entries = Schedule.of_queries ~now buffer in
      let tau = 50.0 in
      Staged.stage (fun () ->
          ignore (Naive_whatif.postpone_by_units entries ~m:0 ~n:(n - 1) ~tau)))

let decision_tests =
  (* One full scheduling decision: build + N what-if questions
     (the quantity plotted in Fig 17). *)
  Test.make_indexed ~name:"sched.decision" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let buffer = buffer_of n in
      let arena = Sla_tree.create_arena () in
      Staged.stage (fun () -> Fig17.decision ~arena ~now buffer))

let incr_question_tests =
  (* One postpone question against a live incremental tree. *)
  Test.make_indexed ~name:"incr.postpone" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let tree = Incr_sla_tree.create ~now (buffer_of n) in
      Staged.stage (fun () ->
          ignore (Incr_sla_tree.postpone tree ~m:0 ~n:(n - 1) ~tau:50.0)))

let incr_cycle_tests =
  (* A full pop+append cycle on the incremental structure. With no
     probe in between, nothing is ever scanned, so these cycles never
     build: contrast with sched.decision, which rebuilds everything. *)
  Test.make_indexed ~name:"incr.pop_append" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let tree = Incr_sla_tree.create ~now (buffer_of n) in
      let replacement = (buffer_of 1).(0) in
      Staged.stage (fun () ->
          Incr_sla_tree.pop_head tree;
          Incr_sla_tree.append tree replacement))

let incr_rush_tests =
  (* The live tree's side of a rushed pick: reset in post-rush order
     (query N/2 first), then the one prefix probe that rushing query
     N/2 asks, postpone(0, N/2 - 1) by its estimate. *)
  Test.make_indexed ~name:"incr.rush" ~fmt:"%s:%d" ~args:sizes (fun n ->
      let buffer = buffer_of n in
      let i = n / 2 in
      let rushed =
        Array.init n (fun j ->
            if j = 0 then buffer.(i) else if j <= i then buffer.(j - 1)
            else buffer.(j))
      in
      let tau = buffer.(i).Query.est_size in
      let tree = Incr_sla_tree.create ~now buffer in
      Staged.stage (fun () ->
          Incr_sla_tree.reset tree ~now rushed;
          ignore (Incr_sla_tree.postpone tree ~m:0 ~n:(i - 1) ~tau)))

let dispatch_fcfs_tests =
  (* One FCFS SLA-tree dispatch decision over M servers. The session is
     warmed to load 0.9 by 20 queries per server through the CLI's
     default pair, then advanced to the next arrival, which is the
     probe: the state and the query are fixed per M, and the decision
     changes neither. *)
  Test.make_indexed ~name:"dispatch.fcfs" ~fmt:"%s:%d" ~args:[ 4; 16; 64; 256 ]
    (fun m ->
      let n = 20 * m in
      let queries =
        Trace.generate
          (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
             ~servers:m ~n_queries:(n + 1) ~seed:42 ())
      in
      let pick_next, hook =
        Schedulers.instantiate Schedulers.fcfs_sla_tree_incr
      in
      let dispatch =
        Dispatchers.instantiate (Dispatchers.fcfs_sla_tree_incr ())
      in
      let session =
        Sim.session ?on_server_event:hook ~n_servers:m ~pick_next ~dispatch
          ~metrics:(Metrics.create ~warmup_id:0 ())
          ()
      in
      for i = 0 to n - 1 do
        Sim.inject session queries.(i)
      done;
      let probe = queries.(n) in
      Sim.advance session ~until:probe.Query.arrival;
      let sim = Sim.sim session in
      Staged.stage (fun () -> ignore (dispatch sim probe)))

(* One pick over a fixed buffer of N Pareto SLA-B queries at a fixed
   decision time (the last arrival): plain CBS reads the plan head in
   one pass; CBS+SLA-tree sorts the plan and builds its tree, into the
   domain's arena, once some candidate passes the rush bound. *)
let cbs_pick_row name scheduler =
  Test.make_indexed ~name ~fmt:"%s:%d" ~args:[ 16; 64; 256 ] (fun n ->
      let buffer =
        Trace.generate
          (Trace.config ~kind:Workloads.Pareto ~profile:Workloads.Sla_b
             ~load:0.9 ~servers:1 ~n_queries:n ~seed:42 ())
      in
      let now = buffer.(n - 1).Query.arrival in
      let pick = Schedulers.pick scheduler in
      Staged.stage (fun () -> ignore (pick ~now buffer)))

let cbs_rate = Exp_common.cbs_rate Workloads.Pareto
let cbs_tests = cbs_pick_row "sched.cbs" (Schedulers.cbs ~rate:cbs_rate)

let cbs_tree_tests =
  cbs_pick_row "sched.cbs_tree" (Schedulers.cbs_sla_tree ~rate:cbs_rate)

let run_micro () =
  let grouped =
    Test.make_grouped ~name:"slatree"
      [
        build_tests;
        postpone_tests;
        naive_postpone_tests;
        decision_tests;
        incr_question_tests;
        incr_cycle_tests;
        incr_rush_tests;
        dispatch_fcfs_tests;
        cbs_tests;
        cbs_tree_tests;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.=== Bechamel micro-benchmarks (per call) ===@.";
  Fmt.pr "%-36s %14s@." "benchmark" "time";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "-"
        else if ns >= 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
        else Printf.sprintf "%10.1f ns" ns
      in
      Fmt.pr "%-36s %14s@." name pretty)
    rows;
  Fmt.pr "@.";
  rows

(* Part 1b — sim.throughput: whole simulator runs through the FCFS
   SLA-tree scheduling+dispatching pair, the rebuild scheduler with the
   scan-priced dispatcher vs the incremental fast path. An overloaded
   single server grows its buffer into the hundreds, which is exactly
   where the rebuild path's per-decision tree build and per-arrival
   plan of the buffer dominate the event loop. *)

let throughput_case ~n_queries =
  Trace.generate
    (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:4.0
       ~servers:1 ~n_queries ~seed:42 ())

let timed_run ~queries ~scheduler ~dispatcher =
  let max_buffer = ref 0 in
  let best = ref infinity in
  Gc.compact ();
  for _ = 1 to 3 do
    let metrics = Metrics.create ~warmup_id:0 () in
    let pick_next, hook = Schedulers.instantiate scheduler in
    let pick ~now buffer =
      if Array.length buffer > !max_buffer then max_buffer := Array.length buffer;
      pick_next ~now buffer
    in
    let t0 = Sys.time () in
    Sim.run ?on_server_event:hook ~queries ~n_servers:1 ~pick_next:pick
      ~dispatch:(Dispatchers.instantiate dispatcher)
      ~metrics ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  (!best *. 1e3, !max_buffer)

let run_sim_throughput scale =
  let sizes =
    if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries then
      [ 700 ]
    else [ 700; 1_400; 2_800 ]
  in
  Fmt.pr "=== sim.throughput: rebuild vs incremental FCFS SLA-tree ===@.";
  Fmt.pr "%-9s %-11s %12s %12s %9s@." "queries" "peak buffer" "rebuild"
    "incremental" "speedup";
  let rows =
    List.map
      (fun n ->
        let queries = throughput_case ~n_queries:n in
        let rebuild_ms, peak =
          timed_run ~queries ~scheduler:Schedulers.fcfs_sla_tree
            ~dispatcher:(Dispatchers.sla_tree Planner.fcfs)
        in
        let incr_ms, _ =
          timed_run ~queries ~scheduler:Schedulers.fcfs_sla_tree_incr
            ~dispatcher:(Dispatchers.fcfs_sla_tree_incr ())
        in
        Fmt.pr "%-9d %-11d %9.1f ms %9.1f ms %8.1fx@." n peak rebuild_ms incr_ms
          (rebuild_ms /. incr_ms);
        (n, peak, rebuild_ms, incr_ms))
      sizes
  in
  Fmt.pr "@.";
  rows

(* Part 1b' — scale: the headline end-to-end run. A 1M-query trace
   spread over 100 servers at steady load (50k over 20 at smoke),
   dispatched by FCFS two ways: the incremental per-server trees, and
   the flat rebuild scheduler with scan-priced dispatch
   ([Dispatchers.sla_tree]). One wall-clock run each — at this size a
   single run is past measurement noise, and single-digit seconds for
   the million-query run is the bar. *)

type scale_bench = {
  sc_queries : int;
  sc_servers : int;
  sc_runs : (string * float * float) list;  (* label, wall ms, queries/s *)
}

let run_scale scale =
  let n, n_servers =
    if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries then
      (50_000, 20)
    else (1_000_000, 100)
  in
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
         ~servers:n_servers ~n_queries:n ~seed:scale.Exp_scale.base_seed ())
  in
  Fmt.pr "=== scale: %d queries over %d servers, FCFS ===@." n n_servers;
  let run1 label ~scheduler ~dispatcher =
    Gc.compact ();
    let metrics = Metrics.create ~warmup_id:0 () in
    let pick_next, hook = Schedulers.instantiate scheduler in
    let t0 = Unix.gettimeofday () in
    Sim.run ?on_server_event:hook ~queries ~n_servers ~pick_next
      ~dispatch:(Dispatchers.instantiate dispatcher)
      ~metrics ();
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    let qps = Float.of_int n /. wall_ms *. 1e3 in
    Fmt.pr "%-12s %10.0f ms %12.0f queries/s@." label wall_ms qps;
    (label, wall_ms, qps)
  in
  let incr =
    run1 "fcfs-incr" ~scheduler:Schedulers.fcfs_sla_tree_incr
      ~dispatcher:(Dispatchers.fcfs_sla_tree_incr ())
  in
  let scan =
    run1 "tree-scan" ~scheduler:Schedulers.fcfs_sla_tree
      ~dispatcher:(Dispatchers.sla_tree Planner.fcfs)
  in
  let runs = [ incr; scan ] in
  Fmt.pr "@.";
  { sc_queries = n; sc_servers = n_servers; sc_runs = runs }

(* Part 1c — observability overhead. After the lib/obs refactor every
   instrumentation site exists in the one binary, so "observability
   off" is the noop-sink path, not a separate build: the guard runs
   the incremental sim.throughput case twice over [Obs.noop] (their
   delta is pure measurement noise — it bounds what the disabled
   instrumentation can possibly cost) and once over an enabled sink,
   whose decision-latency percentiles feed BENCH_sim.json. *)

type obs_bench = {
  off_ms : float;
  off_repeat_ms : float;
  off_delta_pct : float;
  on_ms : float;
  on_overhead_pct : float;
  sched_lat : int * float * float * float;  (* count, p50, p90, p99 ns *)
  dispatch_lat : int * float * float * float;
}

let timed_run_obs ~obs ~queries =
  let best = ref infinity in
  Gc.compact ();
  for _ = 1 to 3 do
    let metrics = Metrics.create ~warmup_id:0 () in
    let pick_next, hook =
      Schedulers.instantiate ~obs Schedulers.fcfs_sla_tree_incr
    in
    let dispatch =
      Dispatchers.instantiate ~obs (Dispatchers.fcfs_sla_tree_incr ())
    in
    let t0 = Sys.time () in
    Sim.run ~obs ?on_server_event:hook ~queries ~n_servers:1 ~pick_next
      ~dispatch ~metrics ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e3

let lat_summary reg name =
  let h = Obs.Registry.histogram reg name in
  ( Obs.Registry.observations h,
    Obs.Registry.histogram_percentile h 50.0,
    Obs.Registry.histogram_percentile h 90.0,
    Obs.Registry.histogram_percentile h 99.0 )

let run_obs_overhead scale =
  let n =
    if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries then 700
    else 2_800
  in
  let queries = throughput_case ~n_queries:n in
  Fmt.pr "=== obs: observability overhead (incremental path, %d queries) ===@."
    n;
  let off_ms = timed_run_obs ~obs:Obs.noop ~queries in
  let off_repeat_ms = timed_run_obs ~obs:Obs.noop ~queries in
  let obs = Obs.create () in
  let on_ms = timed_run_obs ~obs ~queries in
  let off_best = Float.min off_ms off_repeat_ms in
  let off_delta_pct =
    Float.abs (off_ms -. off_repeat_ms) /. off_best *. 100.0
  in
  let on_overhead_pct = (on_ms -. off_best) /. off_best *. 100.0 in
  let reg = Obs.registry obs in
  let sched_lat = lat_summary reg "sched.decision_ns" in
  let dispatch_lat = lat_summary reg "dispatch.decision_ns" in
  Fmt.pr "obs off: %.1f ms, off again: %.1f ms — delta %.2f%% (guard: < 2%%)@."
    off_ms off_repeat_ms off_delta_pct;
  Fmt.pr "obs on:  %.1f ms — overhead %.2f%% over the best disabled run@."
    on_ms on_overhead_pct;
  let pr_lat name (c, p50, p90, p99) =
    Fmt.pr "%s: %d decisions, p50/p90/p99 = %.0f / %.0f / %.0f ns@." name c p50
      p90 p99
  in
  pr_lat "  sched.decision_ns   " sched_lat;
  pr_lat "  dispatch.decision_ns" dispatch_lat;
  if off_delta_pct >= 2.0 then
    Fmt.pr
      "  note: disabled-path delta above the 2%% guard — treat as noisy run@.";
  Fmt.pr "@.";
  {
    off_ms;
    off_repeat_ms;
    off_delta_pct;
    on_ms;
    on_overhead_pct;
    sched_lat;
    dispatch_lat;
  }

(* Part 1c' — fault-injection hook overhead. Three runs of one steady
   multi-server workload on the incremental path: no injector at all
   (the pre-existing fast path), an injector over the empty plan
   (timers wired, on_server_event chained — what `--faults none`
   costs), and an active moderate plan. The off-vs-empty delta is the
   price of merely enabling the hooks; it must stay measurement
   noise. *)

type fault_bench = {
  fault_off_ms : float;
  fault_empty_ms : float;
  fault_active_ms : float;
  fault_empty_delta_pct : float;
}

let timed_run_faults ~make_injector ~queries ~n_servers =
  let best = ref infinity in
  Gc.compact ();
  for _ = 1 to 3 do
    let metrics = Metrics.create ~warmup_id:0 () in
    let pick_next, hook =
      Schedulers.instantiate Schedulers.fcfs_sla_tree_incr
    in
    let dispatch =
      Dispatchers.instantiate (Dispatchers.fcfs_sla_tree_incr ())
    in
    let injector = make_injector () in
    let t0 = Sys.time () in
    (match injector with
    | None ->
      Sim.run ?on_server_event:hook ~queries ~n_servers ~pick_next ~dispatch
        ~metrics ()
    | Some inj ->
      let on_server_event ~sid ~now ev =
        Fault.on_server_event inj ~sid ~now ev;
        match hook with Some h -> h ~sid ~now ev | None -> ()
      in
      Sim.run
        ~timers:(Fault.timers inj)
        ~on_server_event ~queries ~n_servers ~pick_next ~dispatch ~metrics ();
      Fault.finalize inj metrics);
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e3

let run_faults scale =
  let n =
    if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries then
      20_000
    else 80_000
  in
  let n_servers = 4 in
  let load = 0.9 in
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load
         ~servers:n_servers ~n_queries:n ~seed:42 ())
  in
  let horizon =
    Float.of_int n
    *. Workloads.nominal_mean_ms Workloads.Exp
    /. (load *. Float.of_int n_servers)
  in
  Fmt.pr
    "=== faults: injection hook overhead (steady load, %d queries, %d \
     servers) ===@."
    n n_servers;
  let fault_off_ms =
    timed_run_faults ~make_injector:(fun () -> None) ~queries ~n_servers
  in
  let fault_empty_ms =
    timed_run_faults
      ~make_injector:(fun () -> Some (Fault.create ~plan:[] ()))
      ~queries ~n_servers
  in
  let active_plan = Fault.plan_of_spec "moderate" ~horizon ~n_servers in
  let fault_active_ms =
    timed_run_faults
      ~make_injector:(fun () -> Some (Fault.create ~plan:active_plan ()))
      ~queries ~n_servers
  in
  let fault_empty_delta_pct =
    (fault_empty_ms -. fault_off_ms) /. fault_off_ms *. 100.0
  in
  Fmt.pr "hooks absent:    %.1f ms@." fault_off_ms;
  Fmt.pr
    "empty plan:      %.1f ms — delta %+.2f%% (run-to-run noise bounds the \
     hook cost)@."
    fault_empty_ms fault_empty_delta_pct;
  Fmt.pr
    "moderate plan:   %.1f ms (%d events; brownouts grow real backlog, so \
     extra time is the faults, not the hooks)@.@."
    fault_active_ms
    (List.length active_plan);
  { fault_off_ms; fault_empty_ms; fault_active_ms; fault_empty_delta_pct }

(* Part 1d — the elastic scenario: the full four-way autoscaling
   comparison (Exp_elastic), timed end to end. *)
let run_elastic scale =
  Fmt.pr "=== elastic: autoscaling comparison (%d queries) ===@."
    scale.Exp_scale.n_queries;
  Gc.compact ();
  let t0 = Sys.time () in
  let rows =
    Exp_elastic.rows ~scale ~seed:scale.Exp_scale.base_seed ()
  in
  let wall_ms = (Sys.time () -. t0) *. 1e3 in
  List.iter
    (fun (r : Exp_elastic.row) ->
      Fmt.pr "%-20s net $%8.0f (profit %8.0f, cost %8.0f)@."
        r.Exp_elastic.label r.Exp_elastic.net r.Exp_elastic.profit
        r.Exp_elastic.cost)
    rows;
  Fmt.pr "%d runs in %.1f ms@.@." (List.length rows) wall_ms;
  (wall_ms, rows)

(* Part 1d-bis — forecast: the predictive controller's two costs. The
   micro loop prices one forecaster update+predict (the per-tick work
   the predictive policy adds to the hot path); the economics rows come
   from the elastic comparison just run — predictive minus reactive is
   the money the forecast-ahead boots make on the diurnal shape. *)

type forecast_bench = {
  fc_updates : int;
  fc_hw_ns : float;  (* Holt–Winters observe+predict, ns *)
  fc_ewma_ns : float;
  fc_reactive_net : float;
  fc_predictive_net : float;
  fc_oracle_net : float;
  fc_delta : float;  (* predictive net - reactive net *)
}

let run_forecast ~rows () =
  Fmt.pr "=== forecast: per-tick forecaster cost + predictive economics ===@.";
  let updates = 2_000_000 in
  let time_model mk =
    let f = mk () in
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    for i = 0 to updates - 1 do
      Forecast.observe f (Float.of_int (i land 31));
      ignore (Sys.opaque_identity (Forecast.predict f ~horizon:2))
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. Float.of_int updates
  in
  let hw_ns = time_model (fun () -> Forecast.holt_winters ~season:24 ()) in
  let ewma_ns = time_model (fun () -> Forecast.ewma ()) in
  let net l =
    match List.find_opt (fun r -> r.Exp_elastic.label = l) rows with
    | Some r -> r.Exp_elastic.net
    | None -> Float.nan
  in
  let reactive = net Exp_elastic.reactive_label in
  let predictive = net Exp_elastic.predictive_label in
  let oracle = net Exp_elastic.oracle_label in
  let delta = predictive -. reactive in
  Fmt.pr "hw(24) observe+predict: %.1f ns;  ewma: %.1f ns  (%d updates)@."
    hw_ns ewma_ns updates;
  Fmt.pr
    "diurnal nets: reactive $%.0f, predictive $%.0f (%+.0f), oracle $%.0f@.@."
    reactive predictive delta oracle;
  {
    fc_updates = updates;
    fc_hw_ns = hw_ns;
    fc_ewma_ns = ewma_ns;
    fc_reactive_net = reactive;
    fc_predictive_net = predictive;
    fc_oracle_net = oracle;
    fc_delta = delta;
  }

(* Part 1e — the domain-parallel experiment runner: the whole Table 2
   grid timed serial and on 2 / 4 worker domains, plus the check that
   underwrites the determinism contract — every cell of every parallel
   run must be [Float.equal] to its serial counterpart. [Sys.time] sums
   CPU time across domains, so this one section times wall clock. *)

type parallel_bench = {
  par_cells : int;
  par_serial_ms : float;
  par_runs : (int * float * bool) list;  (* jobs, wall ms, cells identical *)
  par_identical : bool;
  par_cores : int;
}

let wall_table2 scale =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let cells = Table2.compute scale in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (ms, cells)

let run_parallel scale =
  Fmt.pr "=== parallel: Table 2 grid, serial vs worker domains ===@.";
  let serial_ms, serial_cells = wall_table2 scale in
  let runs =
    List.map
      (fun jobs ->
        Parallel.set_jobs jobs;
        let ms, cells = wall_table2 scale in
        Parallel.set_jobs 1;
        let identical =
          List.length cells = List.length serial_cells
          && List.for_all2
               (fun (a : Table2.cell) (b : Table2.cell) ->
                 Float.equal a.Table2.avg_loss b.Table2.avg_loss)
               serial_cells cells
        in
        (jobs, ms, identical))
      [ 2; 4 ]
  in
  let par_identical = List.for_all (fun (_, _, ok) -> ok) runs in
  let par_cores = Domain.recommended_domain_count () in
  Fmt.pr "%d cells on %d core(s); serial: %.1f ms@."
    (List.length serial_cells) par_cores serial_ms;
  List.iter
    (fun (jobs, ms, ok) ->
      Fmt.pr "-j %d: %.1f ms (%.2fx)%s@." jobs ms (serial_ms /. ms)
        (if ok then "" else " — CELLS DIFFER FROM SERIAL"))
    runs;
  Fmt.pr "cells bit-identical across worker counts: %b@.@." par_identical;
  {
    par_cells = List.length serial_cells;
    par_serial_ms = serial_ms;
    par_runs = runs;
    par_identical;
    par_cores;
  }

(* Part 1f — serve: the socket path. The same trace runs twice: once
   in-process through [Sim.run], once through the serving daemon — a
   second domain running the accept loop on a unix socket, fed by the
   replay client unpaced in deterministic mode. The delta is the whole
   cost of serving (framing, syscalls, select loop); the daemon's obs
   registry supplies the per-decision latency percentiles through the
   socket path. *)

type serve_bench = {
  sv_queries : int;
  sv_servers : int;
  sv_wall_ms : float;
  sv_arrivals_per_s : float;
  sv_inproc_ms : float;
  sv_profit_identical : bool;
  sv_sched_lat : int * float * float * float;
  sv_dispatch_lat : int * float * float * float;
}

let run_serve scale =
  let n, n_servers =
    if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries then
      (20_000, 8)
    else (100_000, 20)
  in
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
         ~servers:n_servers ~n_queries:n ~seed:scale.Exp_scale.base_seed ())
  in
  Fmt.pr "=== serve: socket path vs in-process, %d queries over %d servers ===@."
    n n_servers;
  (* In-process baseline. *)
  Gc.compact ();
  let inproc_metrics = Metrics.create ~warmup_id:0 () in
  let inproc_ms =
    let pick_next, hook = Schedulers.instantiate Schedulers.fcfs_sla_tree_incr in
    let t0 = Unix.gettimeofday () in
    Sim.run ?on_server_event:hook ~queries ~n_servers ~pick_next
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree_incr ()))
      ~metrics:inproc_metrics ();
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  (* Socket path: daemon in a second domain, unpaced deterministic
     replay over a unix socket. *)
  let sock = Filename.temp_file "slatree-bench" ".sock" in
  Sys.remove sock;
  let obs = Obs.create ~trace_capacity:0 () in
  let engine =
    Daemon.Engine.create ~obs ~clock:(Vclock.manual ())
      ~scheduler:Schedulers.fcfs_sla_tree_incr
      ~dispatcher:(Dispatchers.fcfs_sla_tree_incr ())
      ~n_servers ()
  in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.serve ~exit_on_idle:true
          ~on_ready:(fun () -> Atomic.set ready true)
          ~engine ~listen:(Daemon.Unix_sock sock) ())
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.001
  done;
  let fd = Replay.connect (Daemon.Unix_sock sock) in
  let t0 = Unix.gettimeofday () in
  let report = Replay.run ~speed:0.0 ~client:"bench" ~fd ~queries () in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Domain.join daemon;
  let arrivals_per_s = Float.of_int n /. wall_ms *. 1e3 in
  let profit_identical =
    match report.Replay.summary with
    | Some s ->
      Float.equal s.Wire.total_profit (Metrics.total_profit inproc_metrics)
    | None -> false
  in
  let reg = Obs.registry obs in
  let sched_lat = lat_summary reg "sched.decision_ns" in
  let dispatch_lat = lat_summary reg "dispatch.decision_ns" in
  Fmt.pr "in-process:  %10.0f ms@." inproc_ms;
  Fmt.pr "socket path: %10.0f ms %12.0f arrivals/s (%.1fx in-process)@."
    wall_ms arrivals_per_s (wall_ms /. inproc_ms);
  Fmt.pr "profit identical to in-process run: %b@." profit_identical;
  let pr_lat name (c, p50, p90, p99) =
    Fmt.pr "%s: %d decisions, p50/p90/p99 = %.0f / %.0f / %.0f ns@." name c p50
      p90 p99
  in
  pr_lat "  sched.decision_ns   " sched_lat;
  pr_lat "  dispatch.decision_ns" dispatch_lat;
  Fmt.pr "@.";
  {
    sv_queries = n;
    sv_servers = n_servers;
    sv_wall_ms = wall_ms;
    sv_arrivals_per_s = arrivals_per_s;
    sv_inproc_ms = inproc_ms;
    sv_profit_identical = profit_identical;
    sv_sched_lat = sched_lat;
    sv_dispatch_lat = dispatch_lat;
  }

(* Part 1g — swf: the real-trace path. The committed SWF fixture is
   tiled into a ~1M-job stream (smoke: ~50k): streaming parse
   throughput (MB/s, jobs/s), SLA-synthesis throughput, and the
   end-to-end streamed experiment cell, with the GC's top-of-heap as
   the proxy showing no pass ever materializes the trace. *)

type swf_bench = {
  sw_path : string;
  sw_file_jobs : int;
  sw_tiles : int;
  sw_mb : float;  (** bytes streamed through the parser, MB *)
  sw_parse_ms : float;
  sw_parse_mb_s : float;
  sw_parse_jobs_s : float;
  sw_synth_queries : int;
  sw_synth_ms : float;
  sw_synth_jobs_s : float;
  sw_run_queries : int;
  sw_run_ms : float;
  sw_run_qps : float;
  sw_peak_heap_mb : float;
}

let fixture_swf () =
  let committed =
    List.fold_left Filename.concat "test" [ "data"; "pwa_excerpt.swf" ]
  in
  if Sys.file_exists committed then (committed, false)
  else begin
    (* Bench invoked away from the repo root: generate a stand-in of
       the same shape so the section still measures something real. *)
    let path = Filename.temp_file "slatree-bench" ".swf" in
    let rng = Prng.create 20110322 in
    let t = ref 0.0 in
    let jobs =
      Array.init 2500 (fun i ->
          t := !t +. Prng.exponential rng ~mean:160.0;
          let run_time = Float.round (Prng.exponential rng ~mean:1500.0) +. 1.0 in
          let req_time =
            if Prng.float rng < 0.12 then -1.0
            else Float.round (run_time *. (1.0 +. (3.0 *. Prng.float rng)))
          in
          {
            Swf.job_id = i + 1; submit = Float.round !t; wait = -1.0; run_time;
            procs = 1; cpu_time = -1.0; memory = -1.0; req_procs = 1; req_time;
            req_memory = -1.0; status = 1; user = 1; group = 1; app = 1;
            queue = 1; partition = 1; preceding = -1; think_time = -1.0;
          })
    in
    Swf.save path ~header:[ "Computer: generated bench stand-in" ] jobs;
    (path, true)
  end

let run_swf scale =
  let path, temp = fixture_swf () in
  Fun.protect
    ~finally:(fun () -> if temp then Sys.remove path)
    (fun () ->
      let tiles =
        if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries
        then 20
        else 417 (* 2500 jobs x 417 ~ 1.04M *)
      in
      let file_mb =
        Float.of_int (Unix.stat path).Unix.st_size /. (1024.0 *. 1024.0)
      in
      Fmt.pr "=== swf: real-trace streaming, %s x %d tiles ===@." path tiles;
      (* Parse only. *)
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let file_jobs = ref 0 in
      for _ = 1 to tiles do
        file_jobs := Swf.fold path ~init:0 ~f:(fun n _ -> n + 1)
      done;
      let parse_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let total_jobs = tiles * !file_jobs in
      let mb = file_mb *. Float.of_int tiles in
      let parse_mb_s = mb /. parse_ms *. 1e3 in
      let parse_jobs_s = Float.of_int total_jobs /. parse_ms *. 1e3 in
      (* Parse + SLA synthesis. *)
      let synth_cfg = Sla_synth.config ~time_scale:10.0 () in
      let stats = Sla_synth.stats_create () in
      let t0 = Unix.gettimeofday () in
      Seq.iter ignore (Sla_synth.stream synth_cfg ~tiles ~stats ~path ());
      let synth_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let synth_jobs_s = Float.of_int stats.Sla_synth.read /. synth_ms *. 1e3 in
      (* End-to-end: the streamed experiment cell (incremental SLA-tree
         scheduling and dispatching) over the full tiled stream. *)
      let n_servers = 20 in
      let warmup_id = stats.Sla_synth.kept / 10 in
      let metrics = Metrics.create ~response_cap:65_536 ~warmup_id () in
      let pick_next, hook =
        Schedulers.instantiate Schedulers.fcfs_sla_tree_incr
      in
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let sess =
        Sim.session ?on_server_event:hook ~n_servers ~pick_next
          ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree_incr ()))
          ~metrics ()
      in
      Seq.iter (Sim.inject sess)
        (Sla_synth.stream synth_cfg ~tiles ~path ());
      Sim.drain sess;
      let run_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let run_queries = Metrics.completed_count metrics in
      let run_qps = Float.of_int stats.Sla_synth.kept /. run_ms *. 1e3 in
      let peak_heap_mb =
        Float.of_int (Gc.quick_stat ()).Gc.top_heap_words
        *. Float.of_int (Sys.word_size / 8)
        /. (1024.0 *. 1024.0)
      in
      Fmt.pr "parse:     %10.0f ms  %8.1f MB/s %12.0f jobs/s (%d jobs)@."
        parse_ms parse_mb_s parse_jobs_s total_jobs;
      Fmt.pr "synthesis: %10.0f ms %22.0f jobs/s (%d queries)@." synth_ms
        synth_jobs_s stats.Sla_synth.kept;
      Fmt.pr
        "streamed run: %7.0f ms %22.0f queries/s (%d completed, %d servers)@."
        run_ms run_qps run_queries n_servers;
      Fmt.pr "top of heap after streaming %d jobs: %.1f MB@.@." total_jobs
        peak_heap_mb;
      {
        sw_path = path;
        sw_file_jobs = !file_jobs;
        sw_tiles = tiles;
        sw_mb = mb;
        sw_parse_ms = parse_ms;
        sw_parse_mb_s = parse_mb_s;
        sw_parse_jobs_s = parse_jobs_s;
        sw_synth_queries = stats.Sla_synth.kept;
        sw_synth_ms = synth_ms;
        sw_synth_jobs_s = synth_jobs_s;
        sw_run_queries = run_queries;
        sw_run_ms = run_ms;
        sw_run_qps = run_qps;
        sw_peak_heap_mb = peak_heap_mb;
      })

(* ------------------------------------------------------------------ *)
(* Tenancy: what the probe-priced admission controller costs on the
   arrival hot path. One bursty overloaded tenant-tagged workload,
   identical pool and stack, admission off vs on — the on run pays one
   pruned append-probe scan ([Dispatchers.fcfs_best]), one plan of the
   priced server's buffer and up to two postpone questions per arrival,
   each answered by a scan over the queries the newcomer displaces. *)

type tenancy_bench = {
  tn_queries : int;
  tn_off_ms : float;
  tn_on_ms : float;
  tn_overhead_pct : float;
  tn_profit_off : float;
  tn_profit_on : float;
  tn_rejected : int;
  tn_degraded : int;
}

let run_tenancy scale =
  let n_queries = max 2_000 (scale.Exp_scale.n_queries / 2) in
  let servers = 4 in
  let warmup_id = n_queries / 10 in
  let reg = Tenancy.default_registry () in
  let tcfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_a ~load:0.9
      ~servers ~n_queries ~seed:42 ()
  in
  let period = Float.of_int n_queries /. Trace.arrival_rate tcfg /. 8.0 in
  let queries =
    Tenancy.assign reg
      (Bursty.generate tcfg (Bursty.square ~period ~duty:0.4 ~low:0.5 ~high:2.5))
  in
  Fmt.pr "=== tenancy: admission-probe cost, %d queries x %d servers ===@."
    n_queries servers;
  let one ~admission_on =
    let acct = Tenancy.Acct.create reg ~warmup_id in
    let admit =
      if admission_on then Tenancy.admit (Tenancy.admission reg ~acct ())
      else fun _sim q ->
        Tenancy.Acct.on_offered acct q;
        Tenancy.Acct.on_admitted acct q;
        Sim.Admit
    in
    let metrics = Metrics.create ~warmup_id () in
    let pick_next, hook =
      Schedulers.instantiate Schedulers.fcfs_sla_tree_incr
    in
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    Sim.run ~admit
      ~on_complete:(Tenancy.Acct.on_complete acct)
      ?on_server_event:hook ~queries ~n_servers:servers ~pick_next
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree_incr ()))
      ~metrics ();
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    (ms, Tenancy.report acct, metrics)
  in
  let off_ms, rep_off, _ = one ~admission_on:false in
  let on_ms, rep_on, m_on = one ~admission_on:true in
  let overhead_pct = (on_ms -. off_ms) /. off_ms *. 100.0 in
  let rejected = Metrics.rejected_count m_on in
  let degraded =
    List.fold_left (fun a r -> a + r.Tenancy.r_degraded) 0 rep_on.Tenancy.rows
  in
  Fmt.pr "admission off: %8.1f ms  profit $%.1f@." off_ms
    rep_off.Tenancy.rep_profit;
  Fmt.pr
    "admission on:  %8.1f ms  profit $%.1f  (%d rejected, %d degraded, \
     %+.1f%% time)@."
    on_ms rep_on.Tenancy.rep_profit rejected degraded overhead_pct;
  Fmt.pr "@.";
  {
    tn_queries = n_queries;
    tn_off_ms = off_ms;
    tn_on_ms = on_ms;
    tn_overhead_pct = overhead_pct;
    tn_profit_off = rep_off.Tenancy.rep_profit;
    tn_profit_on = rep_on.Tenancy.rep_profit;
    tn_rejected = rejected;
    tn_degraded = degraded;
  }

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_sim.json). Hand-rolled writer: the
   schema is flat and the toolchain has no JSON dependency. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let emit_json ~path ~scale ~micro ~throughput ~scale_run ~elastic ~forecast
    ~obs ~faults ~parallel ~serve ~swf ~tenancy =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"schema\": \"slatree-bench/1\",\n");
  add (Printf.sprintf "  \"scale\": \"%s\",\n" (json_escape (Exp_scale.name scale)));
  add (Printf.sprintf "  \"n_queries\": %d,\n" scale.Exp_scale.n_queries);
  add "  \"micro_ns\": [\n";
  List.iteri
    (fun i (name, ns) ->
      add
        (Printf.sprintf "    {\"name\": \"%s\", \"ns\": %s}%s\n"
           (json_escape name) (json_float ns)
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  add "  ],\n";
  add "  \"sim_throughput\": [\n";
  List.iteri
    (fun i (n, peak, rebuild_ms, incr_ms) ->
      add
        (Printf.sprintf
           "    {\"queries\": %d, \"peak_buffer\": %d, \"rebuild_ms\": %s, \
            \"incremental_ms\": %s, \"speedup\": %s}%s\n"
           n peak (json_float rebuild_ms) (json_float incr_ms)
           (json_float (rebuild_ms /. incr_ms))
           (if i = List.length throughput - 1 then "" else ",")))
    throughput;
  add "  ],\n";
  add "  \"scale_run\": {\n";
  add (Printf.sprintf "    \"queries\": %d,\n" scale_run.sc_queries);
  add (Printf.sprintf "    \"servers\": %d,\n" scale_run.sc_servers);
  add "    \"runs\": [\n";
  List.iteri
    (fun i (label, wall_ms, qps) ->
      add
        (Printf.sprintf
           "      {\"label\": \"%s\", \"wall_ms\": %s, \"qps\": %s}%s\n"
           (json_escape label) (json_float wall_ms) (json_float qps)
           (if i = List.length scale_run.sc_runs - 1 then "" else ",")))
    scale_run.sc_runs;
  add "    ]\n  },\n";
  let wall_ms, rows = elastic in
  add "  \"elastic\": {\n";
  add (Printf.sprintf "    \"wall_ms\": %s,\n" (json_float wall_ms));
  add "    \"rows\": [\n";
  List.iteri
    (fun i (r : Exp_elastic.row) ->
      add
        (Printf.sprintf
           "      {\"policy\": \"%s\", \"initial\": %d, \"profit\": %s, \
            \"server_time\": %s, \"cost\": %s, \"net\": %s, \"peak_pool\": %d, \
            \"min_pool\": %d, \"scale_ups\": %d, \"scale_downs\": %d}%s\n"
           (json_escape r.Exp_elastic.label)
           r.Exp_elastic.initial
           (json_float r.Exp_elastic.profit)
           (json_float r.Exp_elastic.server_time)
           (json_float r.Exp_elastic.cost)
           (json_float r.Exp_elastic.net)
           r.Exp_elastic.peak r.Exp_elastic.low r.Exp_elastic.ups
           r.Exp_elastic.downs
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  add "    ]\n  },\n";
  add "  \"forecast\": {\n";
  add (Printf.sprintf "    \"updates\": %d,\n" forecast.fc_updates);
  add (Printf.sprintf "    \"hw_ns\": %s,\n" (json_float forecast.fc_hw_ns));
  add
    (Printf.sprintf "    \"ewma_ns\": %s,\n" (json_float forecast.fc_ewma_ns));
  add
    (Printf.sprintf "    \"reactive_net\": %s,\n"
       (json_float forecast.fc_reactive_net));
  add
    (Printf.sprintf "    \"predictive_net\": %s,\n"
       (json_float forecast.fc_predictive_net));
  add
    (Printf.sprintf "    \"oracle_net\": %s,\n"
       (json_float forecast.fc_oracle_net));
  add
    (Printf.sprintf "    \"predictive_minus_reactive\": %s\n"
       (json_float forecast.fc_delta));
  add "  },\n";
  let lat_json name (c, p50, p90, p99) last =
    add
      (Printf.sprintf
         "    \"%s\": {\"count\": %d, \"p50_ns\": %s, \"p90_ns\": %s, \
          \"p99_ns\": %s}%s\n"
         name c (json_float p50) (json_float p90) (json_float p99)
         (if last then "" else ","))
  in
  add "  \"obs\": {\n";
  add (Printf.sprintf "    \"off_ms\": %s,\n" (json_float obs.off_ms));
  add
    (Printf.sprintf "    \"off_repeat_ms\": %s,\n"
       (json_float obs.off_repeat_ms));
  add
    (Printf.sprintf "    \"off_delta_pct\": %s,\n"
       (json_float obs.off_delta_pct));
  add (Printf.sprintf "    \"on_ms\": %s,\n" (json_float obs.on_ms));
  add
    (Printf.sprintf "    \"on_overhead_pct\": %s,\n"
       (json_float obs.on_overhead_pct));
  lat_json "sched_decision_ns" obs.sched_lat false;
  lat_json "dispatch_decision_ns" obs.dispatch_lat true;
  add "  },\n";
  add "  \"faults\": {\n";
  add (Printf.sprintf "    \"off_ms\": %s,\n" (json_float faults.fault_off_ms));
  add
    (Printf.sprintf "    \"empty_plan_ms\": %s,\n"
       (json_float faults.fault_empty_ms));
  add
    (Printf.sprintf "    \"active_plan_ms\": %s,\n"
       (json_float faults.fault_active_ms));
  add
    (Printf.sprintf "    \"empty_delta_pct\": %s\n"
       (json_float faults.fault_empty_delta_pct));
  add "  },\n";
  add "  \"parallel\": {\n";
  add (Printf.sprintf "    \"cells\": %d,\n" parallel.par_cells);
  add (Printf.sprintf "    \"cores\": %d,\n" parallel.par_cores);
  add
    (Printf.sprintf "    \"serial_ms\": %s,\n"
       (json_float parallel.par_serial_ms));
  add
    (Printf.sprintf "    \"bit_identical\": %b,\n" parallel.par_identical);
  add "    \"runs\": [\n";
  List.iteri
    (fun i (jobs, ms, identical) ->
      add
        (Printf.sprintf
           "      {\"jobs\": %d, \"ms\": %s, \"speedup\": %s, \
            \"identical\": %b}%s\n"
           jobs (json_float ms)
           (json_float (parallel.par_serial_ms /. ms))
           identical
           (if i = List.length parallel.par_runs - 1 then "" else ",")))
    parallel.par_runs;
  add "    ]\n  },\n";
  add "  \"serve\": {\n";
  add (Printf.sprintf "    \"queries\": %d,\n" serve.sv_queries);
  add (Printf.sprintf "    \"servers\": %d,\n" serve.sv_servers);
  add (Printf.sprintf "    \"wall_ms\": %s,\n" (json_float serve.sv_wall_ms));
  add
    (Printf.sprintf "    \"arrivals_per_s\": %s,\n"
       (json_float serve.sv_arrivals_per_s));
  add
    (Printf.sprintf "    \"inproc_ms\": %s,\n" (json_float serve.sv_inproc_ms));
  add
    (Printf.sprintf "    \"socket_overhead_x\": %s,\n"
       (json_float (serve.sv_wall_ms /. serve.sv_inproc_ms)));
  add
    (Printf.sprintf "    \"profit_identical\": %b,\n"
       serve.sv_profit_identical);
  lat_json "sched_decision_ns" serve.sv_sched_lat false;
  lat_json "dispatch_decision_ns" serve.sv_dispatch_lat true;
  add "  },\n";
  add "  \"swf\": {\n";
  add (Printf.sprintf "    \"fixture\": \"%s\",\n" (json_escape swf.sw_path));
  add (Printf.sprintf "    \"file_jobs\": %d,\n" swf.sw_file_jobs);
  add (Printf.sprintf "    \"tiles\": %d,\n" swf.sw_tiles);
  add (Printf.sprintf "    \"jobs\": %d,\n" (swf.sw_file_jobs * swf.sw_tiles));
  add (Printf.sprintf "    \"mb\": %s,\n" (json_float swf.sw_mb));
  add (Printf.sprintf "    \"parse_ms\": %s,\n" (json_float swf.sw_parse_ms));
  add
    (Printf.sprintf "    \"parse_mb_s\": %s,\n" (json_float swf.sw_parse_mb_s));
  add
    (Printf.sprintf "    \"parse_jobs_s\": %s,\n"
       (json_float swf.sw_parse_jobs_s));
  add
    (Printf.sprintf "    \"synth_queries\": %d,\n" swf.sw_synth_queries);
  add (Printf.sprintf "    \"synth_ms\": %s,\n" (json_float swf.sw_synth_ms));
  add
    (Printf.sprintf "    \"synth_jobs_s\": %s,\n"
       (json_float swf.sw_synth_jobs_s));
  add
    (Printf.sprintf "    \"run_queries\": %d,\n" swf.sw_run_queries);
  add (Printf.sprintf "    \"run_ms\": %s,\n" (json_float swf.sw_run_ms));
  add (Printf.sprintf "    \"run_qps\": %s,\n" (json_float swf.sw_run_qps));
  add
    (Printf.sprintf "    \"peak_heap_mb\": %s\n"
       (json_float swf.sw_peak_heap_mb));
  add "  },\n";
  add "  \"tenancy\": {\n";
  add (Printf.sprintf "    \"queries\": %d,\n" tenancy.tn_queries);
  add (Printf.sprintf "    \"off_ms\": %s,\n" (json_float tenancy.tn_off_ms));
  add (Printf.sprintf "    \"on_ms\": %s,\n" (json_float tenancy.tn_on_ms));
  add
    (Printf.sprintf "    \"overhead_pct\": %s,\n"
       (json_float tenancy.tn_overhead_pct));
  add
    (Printf.sprintf "    \"profit_off\": %s,\n"
       (json_float tenancy.tn_profit_off));
  add
    (Printf.sprintf "    \"profit_on\": %s,\n"
       (json_float tenancy.tn_profit_on));
  add (Printf.sprintf "    \"rejected\": %d,\n" tenancy.tn_rejected);
  add (Printf.sprintf "    \"degraded\": %d\n" tenancy.tn_degraded);
  add "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let () =
  let ppf = Format.std_formatter in
  let micro_only = Array.exists (String.equal "--micro-only") Sys.argv in
  let scale = Exp_scale.from_env () in
  Fmt.pr
    "SLA-tree benchmark harness — scale %s (%d queries, %d warm-up, %d repeats)@."
    (Exp_scale.name scale) scale.Exp_scale.n_queries scale.Exp_scale.warmup
    scale.Exp_scale.repeats;
  (* Timed before the bechamel pass: its measurement loops leave the
     process in a state (heap shape, GC tuning) that skews wall-clock
     numbers taken afterwards. *)
  let throughput = run_sim_throughput scale in
  let scale_run = run_scale scale in
  let obs = run_obs_overhead scale in
  let faults = run_faults scale in
  let elastic = run_elastic scale in
  let forecast = run_forecast ~rows:(snd elastic) () in
  let parallel = run_parallel scale in
  let serve = run_serve scale in
  let swf = run_swf scale in
  let tenancy = run_tenancy scale in
  let micro = run_micro () in
  emit_json ~path:"BENCH_sim.json" ~scale ~micro ~throughput ~scale_run
    ~elastic ~forecast ~obs ~faults ~parallel ~serve ~swf ~tenancy;
  if not micro_only then begin
    Fig15.run ppf ~seed:scale.Exp_scale.base_seed ();
    Table2.run ppf scale;
    Table3.run ppf scale;
    Table4.run ppf scale;
    Table5.run ppf scale;
    Table6.run ppf scale;
    Table7.run ppf ();
    Fig17.run ppf ~seed:scale.Exp_scale.base_seed ();
    Validation.run ppf scale;
    Ablations.run_all ppf scale
  end;
  Fmt.pr "@.done.@."
