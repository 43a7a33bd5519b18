(* Benchmark harness.

   The Bechamel micro rows time the SLA-tree primitives behind Fig 17:
   full build, one postpone question, a whole scheduling decision, and
   the O(N)-per-question naive baseline the data structure replaces;
   then one pick of the shipped schedulers and one dispatch decision.
   Six sections time and check whole runs: sim_throughput, faults,
   elastic, forecast, swf and tenancy; a seventh, wire, times the
   streaming decoder per message, and an eighth, trace.generate, the
   trace generator per query. Whole-run throughput, obs overhead,
   the parallel runner and the socket path are perfbench's.

   Scale follows SLATREE_SCALE (see Exp_scale): "smoke" | "default" |
   "paper". Run from the repository root (the swf section reads the
   committed SWF fixture). Always writes BENCH_sim.json, then exits 1
   naming every check that failed. *)

open Bechamel
open Toolkit

let sizes = [ 100; 500; 1000; 2000 ]
let now = 200.0

(* The Bechamel group: every row's name is [group ^ "/" ^ row]. *)
let group = "slatree"

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

(* The production pick over the same buffers at the same instant: one
   FCFS+SLA-tree pick beside each [sched.decision:N]. The far-future
   bounds leave every candidate's own gain at 0, so no candidate is
   probed and the row times the O(N) candidate loop alone. *)
let fcfs_tree_fig17_tests =
  Test.make_indexed ~name:"sched.fcfs_tree.fig17" ~fmt:"%s:%d" ~args:sizes
    (fun n ->
      let buffer = buffer_of n in
      let pick = Schedulers.pick Schedulers.fcfs_sla_tree in
      Staged.stage (fun () -> ignore (pick ~now buffer)))

(* One dispatch decision over M servers. The session is warmed to load
   0.9 by 20 queries per server through the CLI's default pair, then
   advanced to the next arrival, which is the probe: the state and the
   query are fixed per M, and a decision changes neither. The FCFS
   SLA-tree and LWL rows each warm the same session (the warm-up is
   deterministic), so only one is alive at a time. *)
let warmed m =
  let n = 20 * m in
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
         ~servers:m ~n_queries:(n + 1) ~seed:42 ())
  in
  let session =
    Sim.session ~n_servers:m
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
      ~metrics:(Metrics.create ~warmup_id:0 ())
      ()
  in
  for i = 0 to n - 1 do
    Sim.inject session queries.(i)
  done;
  let probe = queries.(n) in
  Sim.advance session ~until:probe.Query.arrival;
  (Sim.sim session, probe)

(* Timed in their own Bechamel pass, without per-sample heap compaction
   (see [run_micro]). *)
let dispatch_row name dispatcher =
  Test.make_indexed ~name ~fmt:"%s:%d" ~args:[ 4; 16; 64; 256; 1024 ]
    (fun m ->
      let sim, probe = warmed m in
      let dispatch = Dispatchers.instantiate dispatcher in
      Staged.stage (fun () -> ignore (dispatch sim probe)))

let dispatch_fcfs_tests =
  dispatch_row "dispatch.fcfs" (Dispatchers.fcfs_sla_tree ())

let dispatch_lwl_tests = dispatch_row "dispatch.lwl" Dispatchers.lwl

(* One pick over a fixed buffer of N Pareto SLA-B queries at a fixed
   decision time (the last arrival): plain CBS reads the plan head in
   one pass; CBS+SLA-tree sorts the buffer into its plan, FCFS+SLA-tree
   reads it in place, and both price each candidate that passes the
   rush bound by scanning its predecessors. *)
let pick_sizes = [ 16; 64; 256 ]

let pick_case scheduler n =
  let buffer =
    Trace.generate
      (Trace.config ~kind:Workloads.Pareto ~profile:Workloads.Sla_b ~load:0.9
         ~servers:1 ~n_queries:n ~seed:42 ())
  in
  (Schedulers.pick scheduler, buffer.(n - 1).Query.arrival, buffer)

let pick_row name scheduler =
  Test.make_indexed ~name ~fmt:"%s:%d" ~args:pick_sizes (fun n ->
      let pick, now, buffer = pick_case scheduler n in
      Staged.stage (fun () -> ignore (pick ~now buffer)))

let cbs_rate = Exp_common.cbs_rate Workloads.Pareto
let cbs = Schedulers.cbs ~rate:cbs_rate
let cbs_tree = Schedulers.cbs_sla_tree ~rate:cbs_rate
let cbs_tests = pick_row "sched.cbs" cbs
let cbs_tree_tests = pick_row "sched.cbs_tree" cbs_tree
let fcfs_tree_tests = pick_row "sched.fcfs_tree" Schedulers.fcfs_sla_tree

(* The words one pick of a [sched.*] row allocates: the
   [Gc.minor_words] of 100 picks after a warm-up pick, outside
   Bechamel. A pick over at most 256 queries makes no block too large
   for the minor heap, so these are all its words. *)
let minor_words_per_pick scheduler n =
  let pick, now, buffer = pick_case scheduler n in
  ignore (pick ~now buffer);
  let picks = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to picks do
    ignore (Sys.opaque_identity (pick ~now buffer))
  done;
  (Gc.minor_words () -. w0) /. Float.of_int picks

let pick_words () =
  List.concat_map
    (fun (name, scheduler) ->
      List.map
        (fun n ->
          ( Printf.sprintf "%s/%s:%d" group name n,
            minor_words_per_pick scheduler n ))
        pick_sizes)
    [
      ("sched.cbs", cbs);
      ("sched.cbs_tree", cbs_tree);
      ("sched.fcfs_tree", Schedulers.fcfs_sla_tree);
    ]

(* BENCH_sim.json is strict JSON: a non-finite measurement is written
   as null (Jsonx itself would print nan or inf). *)
let num f = if Float.is_finite f then Jsonx.Num f else Jsonx.Null
let count n = Jsonx.Num (Float.of_int n)

(* The names of the checks that failed, newest first. *)
let failed = ref []
let check name ok = if not ok then failed := name :: !failed

(* One Bechamel pass: each row's OLS time per call, by name. *)
let micro_pass ~stabilize tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize ()
  in
  let raw =
    Benchmark.all cfg [ Instance.monotonic_clock ]
      (Test.make_grouped ~name:group tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      (name, ns) :: acc)
    (Analyze.all ols Instance.monotonic_clock raw)
    []

(* The dispatch rows run in a second pass without Bechamel's per-sample
   heap compaction: a warmed session at M = 1024 keeps a heap large
   enough that compacting it before every sample eats the quota, and
   the row would time the compaction instead of the decision. The
   pick rows also carry their words per pick, and three picks over 256
   queries are checked per buffered query:
   - FCFS+SLA-tree, at most 0.1: the scan carries the running start,
     so a pick allocates its answer and nothing per query (7 words in
     all);
   - CBS, at most 2: its slot of the planner's key array;
   - CBS+SLA-tree, at most 4.5: the key array, the index permutation
     and its merge scratch, and the planned copy.
   Each holds only in the default (release) build, which inlines the
   profit calls and the CBS integral so that neither boxes a float; a
   [--profile dev] build fails all three. *)
let words_per_query words name n =
  Option.value ~default:Float.nan
    (List.assoc_opt (Printf.sprintf "%s/%s:%d" group name n) words)
  /. Float.of_int n

let run_micro () =
  let words = pick_words () in
  let rows =
    micro_pass ~stabilize:true
      [
        build_tests;
        postpone_tests;
        naive_postpone_tests;
        decision_tests;
        fcfs_tree_fig17_tests;
        cbs_tests;
        cbs_tree_tests;
        fcfs_tree_tests;
      ]
    @ micro_pass ~stabilize:false [ dispatch_fcfs_tests; dispatch_lwl_tests ]
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.=== Bechamel micro-benchmarks (per call) ===@.";
  Fmt.pr "%-36s %14s %12s@." "benchmark" "time" "words/call";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "-"
        else if ns >= 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
        else Printf.sprintf "%10.1f ns" ns
      in
      let w =
        match List.assoc_opt name words with
        | Some w -> Printf.sprintf " %12.0f" w
        | None -> ""
      in
      Fmt.pr "%-36s %14s%s@." name pretty w)
    rows;
  Fmt.pr "(dispatch.* rows: a second pass without per-sample heap compaction)@.@.";
  List.iter
    (fun (name, bound) ->
      check
        (Printf.sprintf "micro: %s:256 minor words per buffered query <= %g"
           name bound)
        (words_per_query words name 256 <= bound))
    [ ("sched.fcfs_tree", 0.1); ("sched.cbs", 2.0); ("sched.cbs_tree", 4.5) ];
  Jsonx.Arr
    (List.map
       (fun (name, ns) ->
         Jsonx.Obj
           (("name", Jsonx.Str name)
           :: ("ns", num ns)
           ::
           (match List.assoc_opt name words with
           | Some w -> [ ("minor_words_per_pick", num w) ]
           | None -> [])))
       rows)

(* sim_throughput: whole simulator runs of one overloaded server (load
   4.0) through the shipped FCFS SLA-tree pair, best of three. The
   buffer grows into the hundreds and past a thousand, the depth the
   paper built its tree for: every rush probe scans the candidate's
   predecessors, so a decision costs time linear in the buffer. *)

let timed_run queries =
  let max_buffer = ref 0 in
  let best = ref infinity in
  Gc.compact ();
  for _ = 1 to 3 do
    let metrics = Metrics.create ~warmup_id:0 () in
    let pick_next = Schedulers.pick Schedulers.fcfs_sla_tree in
    let pick ~now buffer =
      if Array.length buffer > !max_buffer then max_buffer := Array.length buffer;
      pick_next ~now buffer
    in
    let t0 = Sys.time () in
    Sim.run ~queries ~n_servers:1 ~pick_next:pick
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
      ~metrics ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  (!best *. 1e3, !max_buffer)

let run_sim_throughput () =
  Fmt.pr "=== sim.throughput: FCFS SLA-tree, one server at load 4.0 ===@.";
  Fmt.pr "%-9s %-11s %12s@." "queries" "peak buffer" "run";
  let rows =
    List.map
      (fun n ->
        let ms, peak =
          timed_run
            (Trace.generate
               (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b
                  ~load:4.0 ~servers:1 ~n_queries:n ~seed:42 ()))
        in
        Fmt.pr "%-9d %-11d %9.1f ms@." n peak ms;
        Jsonx.Obj
          [ ("queries", count n); ("peak_buffer", count peak); ("ms", num ms) ])
      [ 700; 1_400; 2_800 ]
  in
  Fmt.pr "@.";
  Jsonx.Arr rows

(* Time each arm six times, round by round, rotating which arm runs
   first so that no arm always pays the warm-up (six rounds put each of
   two or three arms first equally often); each arm's median
   milliseconds, in arm order. *)
let interleaved_medians arms =
  let rounds = 6 in
  let n = Array.length arms in
  let times = Array.make_matrix n rounds 0.0 in
  for r = 0 to rounds - 1 do
    Gc.compact ();
    for i = 0 to n - 1 do
      let a = (r + i) mod n in
      times.(a).(r) <- arms.(a) ()
    done
  done;
  Array.map (fun ts -> Stats.percentile ts 50.0) times

(* faults: fault-injection hook overhead. One steady multi-server
   workload on the shipped FCFS SLA-tree pair, three arms: no injector
   at all (the pre-existing fast path), an injector over the empty
   plan (timers wired, on_server_event installed — what `--faults
   none` costs), and an active moderate plan. The off-vs-empty delta
   is the price of merely enabling the hooks; it must stay
   measurement noise. *)

let faults_run_ms ~make_injector ~queries ~n_servers () =
  let metrics = Metrics.create ~warmup_id:0 () in
  let pick_next = Schedulers.pick Schedulers.fcfs_sla_tree in
  let dispatch = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()) in
  let injector = make_injector () in
  let t0 = Sys.time () in
  (match injector with
  | None -> Sim.run ~queries ~n_servers ~pick_next ~dispatch ~metrics ()
  | Some inj ->
    Sim.run
      ~timers:(Fault.timers inj)
      ~on_server_event:(Fault.on_server_event inj)
      ~queries ~n_servers ~pick_next ~dispatch ~metrics ();
    Fault.finalize inj metrics);
  (Sys.time () -. t0) *. 1e3

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
  let active_plan = Fault.plan_of_spec "moderate" ~horizon ~n_servers in
  let arm make_injector = faults_run_ms ~make_injector ~queries ~n_servers in
  let off_ms, empty_ms, active_ms =
    match
      interleaved_medians
        [|
          arm (fun () -> None);
          arm (fun () -> Some (Fault.create ~plan:[] ()));
          arm (fun () -> Some (Fault.create ~plan:active_plan ()));
        |]
    with
    | [| off; empty; active |] -> (off, empty, active)
    | _ -> assert false
  in
  let empty_delta_pct = (empty_ms -. off_ms) /. off_ms *. 100.0 in
  Fmt.pr "hooks absent:    %.1f ms@." off_ms;
  Fmt.pr
    "empty plan:      %.1f ms — delta %+.2f%% (run-to-run noise bounds the \
     hook cost)@."
    empty_ms empty_delta_pct;
  Fmt.pr
    "moderate plan:   %.1f ms (%d events; brownouts grow real backlog, so \
     extra time is the faults, not the hooks)@.@."
    active_ms
    (List.length active_plan);
  Jsonx.Obj
    [
      ("off_ms", num off_ms);
      ("empty_plan_ms", num empty_ms);
      ("active_plan_ms", num active_ms);
      ("empty_delta_pct", num empty_delta_pct);
    ]

(* elastic: the full autoscaling comparison (Exp_elastic), timed end
   to end. Returns the rows too: the forecast section reads them. *)
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
      Fmt.pr "%-20s net $%8.0f (profit %8.0f, cost %8.0f)@." r.label r.net
        r.profit r.cost)
    rows;
  Fmt.pr "%d runs in %.1f ms@.@." (List.length rows) wall_ms;
  let row_json (r : Exp_elastic.row) =
    Jsonx.Obj
      [
        ("policy", Jsonx.Str r.label);
        ("initial", count r.initial);
        ("profit", num r.profit);
        ("server_time", num r.server_time);
        ("cost", num r.cost);
        ("net", num r.net);
        ("peak_pool", count r.peak);
        ("min_pool", count r.low);
        ("scale_ups", count r.ups);
        ("scale_downs", count r.downs);
      ]
  in
  ( rows,
    Jsonx.Obj
      [ ("wall_ms", num wall_ms); ("rows", Jsonx.Arr (List.map row_json rows)) ]
  )

(* forecast: the predictive controller's two costs. The micro loop
   prices one forecaster update+predict (the per-tick work the
   predictive policy adds to the hot path); the economics come from the
   elastic comparison just run — predictive minus reactive is the money
   the forecast-ahead boots make on the diurnal shape. *)
let run_forecast ~rows =
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
  check "forecast: updates > 0" (updates > 0);
  check "forecast: 0 < hw_ns < 10000" (0.0 < hw_ns && hw_ns < 10_000.0);
  check "forecast: 0 < ewma_ns < 10000" (0.0 < ewma_ns && ewma_ns < 10_000.0);
  check "forecast: predictive_minus_reactive > 0" (delta > 0.0);
  check "forecast: oracle_net >= predictive_net" (oracle >= predictive);
  Jsonx.Obj
    [
      ("updates", count updates);
      ("hw_ns", num hw_ns);
      ("ewma_ns", num ewma_ns);
      ("reactive_net", num reactive);
      ("predictive_net", num predictive);
      ("oracle_net", num oracle);
      ("predictive_minus_reactive", num delta);
    ]

(* swf: the real-trace path. The committed SWF fixture is tiled into a
   ~1M-job stream (smoke: ~50k): streaming parse throughput (MB/s,
   jobs/s), SLA-synthesis throughput, and the end-to-end streamed
   experiment cell. The largest major heap sampled during the passes,
   each started on a compacted heap, shows no pass ever materializes
   the trace (the process-wide top of heap would report whatever the
   earlier sections left). *)
let run_swf scale =
  let path =
    List.fold_left Filename.concat "test" [ "data"; "pwa_excerpt.swf" ]
  in
  if not (Sys.file_exists path) then
    failwith
      (path ^ " not found: run the bench from the repository root");
  let tiles =
    if scale.Exp_scale.n_queries <= Exp_scale.smoke.Exp_scale.n_queries then 20
    else 417 (* 2500 jobs x 417 ~ 1.04M *)
  in
  let file_mb =
    Float.of_int (Unix.stat path).Unix.st_size /. (1024.0 *. 1024.0)
  in
  Fmt.pr "=== swf: real-trace streaming, %s x %d tiles ===@." path tiles;
  let peak_words = ref 0 in
  let sample () =
    peak_words := max !peak_words (Gc.quick_stat ()).Gc.heap_words
  in
  (* Sampled every 4096 items and at the end of each pass. *)
  let every n = if n land 4095 = 0 then sample () in
  (* Parse only. *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let file_jobs = ref 0 in
  for _ = 1 to tiles do
    file_jobs :=
      Swf.fold path ~init:0 ~f:(fun n _ ->
          every n;
          n + 1)
  done;
  sample ();
  let file_jobs = !file_jobs in
  let parse_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let parsed = tiles * file_jobs in
  let mb = file_mb *. Float.of_int tiles in
  let parse_mb_s = mb /. parse_ms *. 1e3 in
  let parse_jobs_s = Float.of_int parsed /. parse_ms *. 1e3 in
  (* Parse + SLA synthesis. *)
  let synth_cfg = Sla_synth.config ~time_scale:10.0 () in
  let stats = Sla_synth.stats_create () in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let seen = ref 0 in
  Seq.iter
    (fun _ ->
      incr seen;
      every !seen)
    (Sla_synth.stream synth_cfg ~tiles ~stats ~path ());
  sample ();
  let synth_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let jobs = stats.Sla_synth.read in
  let synth_jobs_s = Float.of_int jobs /. synth_ms *. 1e3 in
  (* End-to-end: the streamed experiment cell (FCFS SLA-tree scheduling
     and dispatching) over the full tiled stream. *)
  let n_servers = 20 in
  let metrics =
    Metrics.create ~response_cap:65_536 ~warmup_id:(stats.Sla_synth.kept / 10)
      ()
  in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let sess =
    Sim.session ~n_servers
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
      ~metrics ()
  in
  let injected = ref 0 in
  Seq.iter
    (fun q ->
      Sim.inject sess q;
      incr injected;
      every !injected)
    (Sla_synth.stream synth_cfg ~tiles ~path ());
  Sim.drain sess;
  let run_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  sample ();
  let run_queries = Metrics.completed_count metrics in
  let run_qps = Float.of_int stats.Sla_synth.kept /. run_ms *. 1e3 in
  let peak_heap_mb =
    Float.of_int !peak_words
    *. Float.of_int (Sys.word_size / 8)
    /. (1024.0 *. 1024.0)
  in
  Fmt.pr "parse:     %10.0f ms  %8.1f MB/s %12.0f jobs/s (%d jobs)@." parse_ms
    parse_mb_s parse_jobs_s parsed;
  Fmt.pr "synthesis: %10.0f ms %22.0f jobs/s (%d queries)@." synth_ms
    synth_jobs_s stats.Sla_synth.kept;
  Fmt.pr "streamed run: %7.0f ms %22.0f queries/s (%d completed, %d servers)@."
    run_ms run_qps run_queries n_servers;
  Fmt.pr "largest heap while streaming %d jobs: %.1f MB@.@." parsed
    peak_heap_mb;
  check "swf: jobs = tiles x file_jobs" (jobs = tiles * file_jobs);
  check "swf: parse_mb_s > 0" (parse_mb_s > 0.0);
  check "swf: parse_jobs_s > 0" (parse_jobs_s > 0.0);
  check "swf: synth_jobs_s > 0" (synth_jobs_s > 0.0);
  check "swf: run_queries > 0" (run_queries > 0);
  check "swf: run_qps > 0" (run_qps > 0.0);
  check "swf: 0 < peak_heap_mb < 1024"
    (0.0 < peak_heap_mb && peak_heap_mb < 1024.0);
  Jsonx.Obj
    [
      ("fixture", Jsonx.Str path);
      ("file_jobs", count file_jobs);
      ("tiles", count tiles);
      ("jobs", count jobs);
      ("mb", num mb);
      ("parse_ms", num parse_ms);
      ("parse_mb_s", num parse_mb_s);
      ("parse_jobs_s", num parse_jobs_s);
      ("synth_queries", count stats.Sla_synth.kept);
      ("synth_ms", num synth_ms);
      ("synth_jobs_s", num synth_jobs_s);
      ("run_queries", count run_queries);
      ("run_ms", num run_ms);
      ("run_qps", num run_qps);
      ("peak_heap_mb", num peak_heap_mb);
    ]

(* tenancy: what the probe-priced admission controller costs and
   earns. One bursty overloaded tenant-tagged workload over one pool
   and stack. The economics come from two runs, admission off and on.
   The cost is [Tenancy.admit] itself, timed call by call on the
   admission-off run: every arrival is also priced (one FCFS pick
   ([Dispatchers.fcfs_best]), one plan of the priced server's buffer
   and up to two postpone questions, each a scan over the queries the
   newcomer displaces) and the verdict is dropped, so every call sees
   the state the admission-off run reaches. Timing the two runs
   instead would net the probe against the work its rejections save.
   The per-call mean is the median of six runs. *)
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
  let run ~admit acct =
    let metrics = Metrics.create ~warmup_id () in
    Sim.run ~admit
      ~on_complete:(Tenancy.Acct.on_complete acct)
      ~queries ~n_servers:servers
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
      ~metrics ();
    metrics
  in
  let wave_through acct _sim q =
    Tenancy.Acct.on_offered acct q;
    Tenancy.Acct.on_admitted acct q;
    Sim.Admit
  in
  let acct_off = Tenancy.Acct.create reg ~warmup_id in
  let m_off = run ~admit:(wave_through acct_off) acct_off in
  let acct_on = Tenancy.Acct.create reg ~warmup_id in
  let m_on =
    run ~admit:(Tenancy.admit (Tenancy.admission reg ~acct:acct_on ())) acct_on
  in
  (* The admission-off run, with every arrival priced on the side. *)
  let timed_calls () =
    let acct = Tenancy.Acct.create reg ~warmup_id in
    let probe = Tenancy.admit (Tenancy.admission reg ~acct ()) in
    let ns = ref 0L and calls = ref 0 in
    let admit sim q =
      let t0 = Obs.now_ns () in
      ignore (Sys.opaque_identity (probe sim q));
      ns := Int64.add !ns (Int64.sub (Obs.now_ns ()) t0);
      incr calls;
      wave_through acct sim q
    in
    Gc.compact ();
    let m = run ~admit acct in
    (Int64.to_float !ns /. Float.of_int (max 1 !calls), m)
  in
  let samples = Array.init 6 (fun _ -> timed_calls ()) in
  let admit_ns = Stats.percentile (Array.map fst samples) 50.0 in
  let m_timed = snd samples.(0) in
  let profit_off = (Tenancy.report acct_off).Tenancy.rep_profit in
  let rep_on = Tenancy.report acct_on in
  let profit_on = rep_on.Tenancy.rep_profit in
  let rejected = Metrics.rejected_count m_on in
  let degraded =
    List.fold_left (fun a r -> a + r.Tenancy.r_degraded) 0 rep_on.Tenancy.rows
  in
  Fmt.pr "Tenancy.admit: %8.0f ns per call (median of %d runs)@." admit_ns
    (Array.length samples);
  Fmt.pr "admission off: profit $%.1f@." profit_off;
  Fmt.pr "admission on:  profit $%.1f  (%d rejected, %d degraded)@.@." profit_on
    rejected degraded;
  check "tenancy: queries > 0" (n_queries > 0);
  check "tenancy: admit_ns > 0" (admit_ns > 0.0);
  check "tenancy: timed run = admission-off run"
    (Metrics.completed_count m_timed = Metrics.completed_count m_off
    && Int64.equal
         (Int64.bits_of_float (Metrics.avg_loss m_timed))
         (Int64.bits_of_float (Metrics.avg_loss m_off)));
  check "tenancy: rejected > 0" (rejected > 0);
  check "tenancy: profit_on > profit_off" (profit_on > profit_off);
  Jsonx.Obj
    [
      ("queries", count n_queries);
      ("admit_ns", num admit_ns);
      ("profit_off", num profit_off);
      ("profit_on", num profit_on);
      ("rejected", count rejected);
      ("degraded", count degraded);
    ]

(* trace.generate: the generation path every experiment and perfbench
   workload starts from, per generated query of a 20 000-query SLA-B
   trace: wall nanoseconds (median of five rounds) and minor words,
   which repeat exactly from run to run. The check bounds the words:
   queries that each carried a copy of their SLA paid 37 more. *)
let run_trace_generate () =
  let n = 20_000 in
  Fmt.pr "=== trace.generate: %d SLA-B queries ===@." n;
  Fmt.pr "%-8s %12s %12s@." "kind" "ns/query" "words/query";
  let rows =
    List.map
      (fun kind ->
        let cfg =
          Trace.config ~kind ~profile:Workloads.Sla_b ~load:0.9 ~servers:1
            ~n_queries:n ~seed:42 ()
        in
        ignore (Trace.generate cfg);
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Trace.generate cfg));
        let words = (Gc.minor_words () -. w0) /. Float.of_int n in
        let round () =
          Gc.compact ();
          let t0 = Obs.now_ns () in
          ignore (Sys.opaque_identity (Trace.generate cfg));
          Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. Float.of_int n
        in
        let ns = Stats.percentile (Array.init 5 (fun _ -> round ())) 50.0 in
        let name = Workloads.kind_name kind in
        Fmt.pr "%-8s %12.1f %12.1f@." name ns words;
        (name, ns, words))
      [ Workloads.Exp; Workloads.Pareto ]
  in
  Fmt.pr "@.";
  check "trace.generate words per query <= 64"
    (List.for_all (fun (_, _, words) -> words <= 64.0) rows);
  Jsonx.Arr
    (List.map
       (fun (name, ns, words) ->
         Jsonx.Obj
           [
             ("kind", Jsonx.Str name);
             ("queries", count n);
             ("ns_per_query", num ns);
             ("minor_words_per_query", num words);
           ])
       rows)

(* wire: the streaming decoder, per message. It is fed the binary
   Submit frames of a 20 000-query trace in reads of 128 B and of
   64 KiB, the daemon's read size, and drained after each read; each
   figure is the median of five rounds. A decoder that copied its
   pending bytes on every message would pay more per message the larger
   the reads; the check holds the 64 KiB figure within 2x of the 128 B
   one. A stream that loses a message reads NaN, and fails the check.
   One-shot encode and decode per message are perfbench's (the traced
   serve round's wire.encode_ns and wire.decode_ns). *)
let run_wire () =
  let n = 20_000 in
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
         ~servers:8 ~n_queries:n ~seed:42 ())
  in
  Fmt.pr "=== wire: streaming decoder, %d Submit frames ===@." n;
  let stream =
    String.concat ""
      (Array.to_list
         (Array.map (fun q -> Wire.encode Wire.Binary (Wire.Submit q)) queries))
  in
  let streamed read =
    let len = String.length stream in
    let pieces =
      Array.init ((len + read - 1) / read) (fun i ->
          String.sub stream (i * read) (min read (len - (i * read))))
    in
    let round () =
      Gc.compact ();
      let t0 = Obs.now_ns () in
      let dec = Wire.Decoder.create ~framing:Wire.Binary () in
      let got = ref 0 in
      Array.iter
        (fun p ->
          Wire.Decoder.feed dec p;
          let more = ref true in
          while !more do
            match Wire.Decoder.next dec with
            | Ok (Some _) -> incr got
            | Ok None | Error _ -> more := false
          done)
        pieces;
      let ns = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
      if !got = n then ns /. Float.of_int n else Float.nan
    in
    Stats.percentile (Array.init 5 (fun _ -> round ())) 50.0
  in
  let small = streamed 128 and large = streamed 65_536 in
  Fmt.pr "%.1f ns per message at 128 B reads, %.1f ns at 64 KiB reads@.@."
    small large;
  check "wire: decode per message at 64 KiB reads <= 2x at 128 B reads"
    (large <= 2.0 *. small);
  Jsonx.Obj
    [
      ("messages", count n);
      ( "stream_decode_ns",
        Jsonx.Obj [ ("read_128", num small); ("read_65536", num large) ] );
    ]

let () =
  let scale = Exp_scale.from_env () in
  Fmt.pr
    "SLA-tree benchmark harness — scale %s (%d queries, %d warm-up, %d repeats)@."
    (Exp_scale.name scale) scale.Exp_scale.n_queries scale.Exp_scale.warmup
    scale.Exp_scale.repeats;
  (* Timed before the bechamel pass: its measurement loops leave the
     process in a state (heap shape, GC tuning) that skews wall-clock
     numbers taken afterwards. *)
  let sim_throughput = run_sim_throughput () in
  let faults = run_faults scale in
  let elastic_rows, elastic = run_elastic scale in
  let forecast = run_forecast ~rows:elastic_rows in
  let swf = run_swf scale in
  let tenancy = run_tenancy scale in
  let wire = run_wire () in
  let trace_generate = run_trace_generate () in
  let micro = run_micro () in
  let path = "BENCH_sim.json" in
  let json =
    Jsonx.Obj
      [
        ("schema", Jsonx.Str "slatree-bench/2");
        ("scale", Jsonx.Str (Exp_scale.name scale));
        ("n_queries", count scale.Exp_scale.n_queries);
        ("micro_ns", micro);
        ("sim_throughput", sim_throughput);
        ("faults", faults);
        ("elastic", elastic);
        ("forecast", forecast);
        ("swf", swf);
        ("tenancy", tenancy);
        ("wire", wire);
        ("trace_generate", trace_generate);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Jsonx.to_string json);
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." path;
  match List.rev !failed with
  | [] -> Fmt.pr "@.done.@."
  | names ->
    List.iter (Fmt.epr "check failed: %s@.") names;
    exit 1
