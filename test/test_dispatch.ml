(* Tests for dispatchers: Round-Robin cycling, LWL choosing the least
   backlog, SLA-tree insertion-profit dispatching, and admission
   control. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let sla ?(bound = 100.0) ?(gain = 1.0) () = Sla.single_step ~bound ~gain

let mk ?(sla = sla ()) id arrival size =
  Query.make ~id ~arrival ~size ~sla ()

let fcfs_pick ~now:_ _buffer = 0

(* Drive a simulation while recording every dispatch target. *)
let run_recording dispatcher queries ~n_servers =
  let targets = ref [] in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run
    ~on_dispatch:(fun ~now:_ _q (d : Sim.decision) ->
      targets := d.target :: !targets)
    ~queries ~n_servers ~pick_next:fcfs_pick
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  (List.rev !targets, metrics)

let test_round_robin_cycles () =
  let queries = Array.init 6 (fun i -> mk i (Float.of_int i *. 0.1) 10.0) in
  let targets, _ = run_recording Dispatchers.round_robin queries ~n_servers:3 in
  Alcotest.(check (list (option int)))
    "cycles 0,1,2,0,1,2"
    [ Some 0; Some 1; Some 2; Some 0; Some 1; Some 2 ]
    targets

let test_round_robin_fresh_state_per_instantiation () =
  let queries = Array.init 2 (fun i -> mk i (Float.of_int i *. 0.1) 1.0) in
  let t1, _ = run_recording Dispatchers.round_robin queries ~n_servers:2 in
  let t2, _ = run_recording Dispatchers.round_robin queries ~n_servers:2 in
  Alcotest.(check (list (option int))) "same start each run" t1 t2

let test_lwl_picks_idle_server () =
  (* q0 occupies server 0 (RR-free system starts empty so LWL sends the
     long q0 to server 0); q1 must go to the idle server 1. *)
  let queries = [| mk 0 0.0 100.0; mk 1 1.0 1.0 |] in
  let targets, _ = run_recording Dispatchers.lwl queries ~n_servers:2 in
  Alcotest.(check (list (option int))) "0 then 1" [ Some 0; Some 1 ] targets

let test_lwl_counts_buffered_work () =
  (* Server 0 busy with a 10-unit query plus an 8-unit buffered query;
     server 1 busy with a 12-unit query. Next arrival: server 1 has
     less total backlog. *)
  let queries =
    [| mk 0 0.0 10.0; mk 1 0.1 12.0; mk 2 0.2 8.0; mk 3 0.3 1.0 |]
  in
  let targets, _ = run_recording Dispatchers.lwl queries ~n_servers:2 in
  (* q0 -> 0 (both idle, tie -> 0); q1 -> 1 (0 busy); q2 -> 1? work:
     s0 has ~9.9 left; s1 has ~11.9 -> q2 goes to 0. q3: s0 = 9.7 + 8,
     s1 = 11.7 -> server 1. *)
  Alcotest.(check (list (option int)))
    "backlog-aware"
    [ Some 0; Some 1; Some 0; Some 1 ]
    targets

let test_lwl_uses_estimates_not_actuals () =
  (* Server 0 runs a query that is actually long but estimated tiny;
     LWL (which sees estimates) still prefers server 0. *)
  let q0 = Query.make ~id:0 ~arrival:0.0 ~size:100.0 ~est_size:0.5 ~sla:(sla ()) () in
  let queries = [| q0; mk 1 0.1 10.0; mk 2 0.2 1.0 |] in
  let targets, _ = run_recording Dispatchers.lwl queries ~n_servers:2 in
  (* q1: s0 appears to have ~0.4 left vs s1 idle(0) -> s1. q2 at 0.2:
     s0 appears to have ~0.3 left, s1 has ~9.9 -> s0. *)
  Alcotest.(check (list (option int)))
    "estimate-driven"
    [ Some 0; Some 1; Some 0 ]
    targets

(* ------------------------------------------------------------------ *)
(* SITA *)

let test_sita_cutoffs_equal_work () =
  (* Sizes 1..4 (total 10): two classes split at the size where half
     the work is accumulated -> cutoff 3 (1+2+3 = 6 >= 5). *)
  let cutoffs = Sita.cutoffs_equal_work ~sizes:[| 1.0; 2.0; 3.0; 4.0 |] ~classes:2 in
  Alcotest.(check (array (float 1e-9))) "cutoff" [| 3.0 |] cutoffs

let test_sita_cutoffs_degenerate () =
  (* All-equal sample must still yield ordered cutoffs. *)
  let cutoffs = Sita.cutoffs_equal_work ~sizes:(Array.make 10 5.0) ~classes:3 in
  check_int "two cutoffs" 2 (Array.length cutoffs);
  Array.iter (fun c -> check_float "pinned to max" 5.0 c) cutoffs

let test_sita_class_of () =
  let cutoffs = [| 2.0; 10.0 |] in
  check_int "small" 0 (Sita.class_of ~cutoffs 1.0);
  check_int "boundary inclusive" 0 (Sita.class_of ~cutoffs 2.0);
  check_int "middle" 1 (Sita.class_of ~cutoffs 5.0);
  check_int "large" 2 (Sita.class_of ~cutoffs 100.0)

let test_sita_separates_sizes () =
  (* Two servers, cutoff at 5: small queries go to server 0, large to
     server 1, regardless of backlog. *)
  let d = Sita.dispatcher ~cutoffs:[| 5.0 |] in
  let queries =
    [| mk 0 0.0 1.0; mk 1 0.1 50.0; mk 2 0.2 2.0; mk 3 0.3 60.0 |]
  in
  let targets, _ = run_recording d queries ~n_servers:2 in
  Alcotest.(check (list (option int)))
    "classes own servers"
    [ Some 0; Some 1; Some 0; Some 1 ]
    targets

let test_sita_for_workload_runs () =
  let d = Sita.for_workload ~seed:3 Workloads.Pareto ~classes:3 in
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Pareto ~profile:Workloads.Sla_a ~load:0.8
         ~servers:3 ~n_queries:500 ~seed:4 ())
  in
  let targets, m = run_recording d queries ~n_servers:3 in
  check_int "all completed" 500 (Metrics.completed_count m);
  check_bool "valid servers" true
    (List.for_all (function Some s -> s >= 0 && s < 3 | None -> false) targets)

let test_random_dispatcher () =
  let d = Dispatchers.random ~seed:5 in
  let queries = Array.init 200 (fun i -> mk i (Float.of_int i *. 0.01) 0.5) in
  let targets, m = run_recording d queries ~n_servers:4 in
  check_int "all completed" 200 (Metrics.completed_count m);
  let counts = Array.make 4 0 in
  List.iter
    (function
      | Some s -> counts.(s) <- counts.(s) + 1
      | None -> Alcotest.fail "rejected")
    targets;
  Array.iter (fun c -> check_bool "every server used" true (c > 20)) counts

(* ------------------------------------------------------------------ *)
(* SLA-tree dispatching *)

let test_sla_tree_dispatch_prefers_idle () =
  let d = Dispatchers.sla_tree Planner.fcfs in
  let queries = [| mk 0 0.0 50.0; mk 1 1.0 10.0 |] in
  let targets, _ = run_recording d queries ~n_servers:2 in
  Alcotest.(check (list (option int))) "idle server wins" [ Some 0; Some 1 ] targets

let test_sla_tree_dispatch_reports_delta () =
  let d = Dispatchers.sla_tree Planner.fcfs in
  let deltas = ref [] in
  let metrics = Metrics.create ~warmup_id:0 () in
  let queries = [| mk 0 0.0 10.0 |] in
  Sim.run
    ~on_dispatch:(fun ~now:_ _q (dec : Sim.decision) ->
      deltas := dec.est_delta :: !deltas)
    ~queries ~n_servers:1 ~pick_next:fcfs_pick
    ~dispatch:(Dispatchers.instantiate d)
    ~metrics ();
  match !deltas with
  | [ Some delta ] ->
    (* Lone query on an idle server completes at 10 <= 100: profit 1. *)
    check_float "delta is own profit" 1.0 delta
  | _ -> Alcotest.fail "expected one reported delta"

(* A server state with one running query and one fragile buffered
   query, probed at the arrival of a newcomer. Under the SJF planner
   the (smaller) newcomer would jump the fragile query, postponing it
   past its deadline: the insertion delta must be its own profit minus
   the fragile gain. *)
let fragile_scenario_queries =
  let fragile = sla ~bound:14.7 ~gain:10.0 () in
  (* fragile deadline: 0.5 + 14.7 = 15.2; scheduled completion 15
     (runs after q0 finishes at 10), slack 0.2. *)
  [|
    mk 0 0.0 10.0;
    (* running until t = 10 *)
    mk ~sla:fragile 1 0.5 5.0;
    (* buffered *)
    mk 2 1.0 2.0;
    (* the newcomer: SJF would insert it before the size-5 query *)
  |]

let test_sla_tree_dispatch_avoids_harm () =
  let probe = ref None in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run
    ~queries:fragile_scenario_queries ~n_servers:1
    ~pick_next:(Schedulers.pick Schedulers.sjf)
    ~dispatch:(fun sim q ->
      if q.Query.id = 2 then
        probe := Some (Dispatchers.insertion_profit Planner.sjf sim 0 q);
      { Sim.target = Some 0; est_delta = None })
    ~metrics ();
  match !probe with
  | Some delta ->
    (* Own profit 1 (completes at 12, far within bound 100) minus the
       fragile query's 10. *)
    check_float "delta = 1 - 10" (-9.0) delta
  | None -> Alcotest.fail "probe did not run"

let test_admission_control_rejects_harmful () =
  (* Same scenario driven through the real dispatcher with admission
     control: the harmful newcomer must be rejected. *)
  let d = Dispatchers.sla_tree ~admission:true Planner.sjf in
  let metrics = Metrics.create ~warmup_id:0 () in
  let targets = ref [] in
  Sim.run
    ~on_dispatch:(fun ~now:_ _q (dec : Sim.decision) ->
      targets := dec.target :: !targets)
    ~queries:fragile_scenario_queries ~n_servers:1
    ~pick_next:(Schedulers.pick Schedulers.sjf)
    ~dispatch:(Dispatchers.instantiate d)
    ~metrics ();
  check_bool "newcomer rejected" true (List.hd !targets = None);
  check_int "one rejection" 1 (Metrics.rejected_count metrics);
  check_int "others complete" 2 (Metrics.completed_count metrics)

let test_insertion_profit_empty_server () =
  (* Direct probe of the what-if on an empty system. *)
  let metrics = Metrics.create ~warmup_id:0 () in
  let probe = ref None in
  let queries = [| mk 0 5.0 10.0 |] in
  Sim.run
    ~queries ~n_servers:1 ~pick_next:fcfs_pick
    ~dispatch:(fun sim q ->
      probe := Some (Dispatchers.insertion_profit Planner.fcfs sim 0 q);
      { Sim.target = Some 0; est_delta = None })
    ~metrics ();
  match !probe with
  | Some v -> check_float "own profit on empty server" 1.0 v
  | None -> Alcotest.fail "probe did not run"

let test_insertion_profit_heterogeneous () =
  (* A query that meets its deadline on a fast server but not on a slow
     one: the what-if must see the difference (Sec 6.2's heterogeneity
     claim). *)
  let q = mk ~sla:(sla ~bound:6.0 ~gain:2.0 ()) 0 0.0 10.0 in
  let probe_fast = ref None and probe_slow = ref None in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~speeds:[| 2.0; 0.5 |]
    ~queries:[| q |] ~n_servers:2
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch:(fun sim query ->
      probe_fast := Some (Dispatchers.insertion_profit Planner.fcfs sim 0 query);
      probe_slow := Some (Dispatchers.insertion_profit Planner.fcfs sim 1 query);
      { Sim.target = Some 0; est_delta = None })
    ~metrics ();
  (match !probe_fast with
  | Some v -> check_float "fast server: 10/2 = 5 <= 6, earns 2" 2.0 v
  | None -> Alcotest.fail "no fast probe");
  match !probe_slow with
  | Some v -> check_float "slow server: 10/0.5 = 20 > 6, earns 0" 0.0 v
  | None -> Alcotest.fail "no slow probe"

let test_insertion_profit_slack_edges () =
  (* Exact binary fractions throughout. q0 runs from 0 to 2.5, the
     anchor. EDF plans q1 (deadline 3.75) then q2 (deadline 5.75): q1
     completes at 3.75, q2 at 4.25. The newcomer (estimate 1.5, first
     deadline 3.0) ranks first and postpones both by tau = 1.5. q1's
     slack is exactly 0: on time now, late once postponed, so its $16
     counts. q2's slack is exactly tau: postponed, it completes exactly
     at its deadline and stays on time, so its $8 does not count. The
     newcomer completes at 4.0, its second level: $4. *)
  let q0 = mk 0 0.0 2.5 in
  let q1 = mk ~sla:(sla ~bound:3.75 ~gain:16.0 ()) 1 0.0 1.25 in
  let q2 = mk ~sla:(sla ~bound:5.75 ~gain:8.0 ()) 2 0.0 0.5 in
  let newcomer =
    mk
      ~sla:
        (Sla.make
           ~levels:
             [ { Sla.bound = 3.0; gain = 32.0 }; { Sla.bound = 4.0; gain = 4.0 } ]
           ~penalty:0.0)
      3 0.0 1.5
  in
  let sess =
    Sim.session ~n_servers:1
      ~pick_next:(Schedulers.pick Schedulers.fcfs)
      ~dispatch:(fun _ _ -> { Sim.target = Some 0; est_delta = None })
      ~metrics:(Metrics.create ~warmup_id:0 ())
      ()
  in
  List.iter (Sim.inject sess) [ q0; q1; q2 ];
  let sim = Sim.sim sess in
  let srv = Sim.server sim 0 in
  check_int "two buffered" 2 (Sim.buffer_length srv);
  Alcotest.(check (float 0.0)) "anchor" 2.5 (Sim.est_free_at sim srv);
  Alcotest.(check (float 0.0))
    "scan: 4 - 16" (-12.0)
    (Dispatchers.insertion_profit Planner.edf sim 0 newcomer);
  Alcotest.(check (float 0.0))
    "tree: 4 - 16" (-12.0)
    (Insertion_oracle.insertion_profit Planner.edf sim 0 newcomer)

let test_heterogeneous_end_to_end () =
  (* Mixed farm: the profit-aware dispatcher must not lose to RR. *)
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_a ~load:0.9
         ~servers:4 ~n_queries:3_000 ~seed:808 ())
  in
  let speeds = [| 2.0; 1.0; 1.0; 0.5 |] in
  let loss dispatcher =
    let metrics = Metrics.create ~warmup_id:1_000 () in
    Sim.run ~speeds ~queries ~n_servers:4
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate dispatcher)
      ~metrics ();
    Metrics.avg_loss metrics
  in
  let rr = loss Dispatchers.round_robin in
  let tree = loss (Dispatchers.sla_tree Planner.fcfs) in
  check_bool
    (Printf.sprintf "tree %.3f < rr %.3f on mixed farm" tree rr)
    true (tree < rr)

let test_names () =
  Alcotest.(check string) "rr" "RR" (Dispatchers.name Dispatchers.round_robin);
  Alcotest.(check string) "lwl" "LWL" (Dispatchers.name Dispatchers.lwl);
  Alcotest.(check string) "sla" "SLA-tree"
    (Dispatchers.name (Dispatchers.sla_tree Planner.fcfs));
  Alcotest.(check string) "ac" "SLA-tree+AC"
    (Dispatchers.name (Dispatchers.sla_tree ~admission:true Planner.fcfs))

(* End-to-end shape check (Table 3's relation): SLA-tree dispatching
   beats LWL on a congested multi-server system. *)
let avg_loss dispatcher scheduler queries ~n_servers ~warmup =
  let metrics = Metrics.create ~warmup_id:warmup () in
  Sim.run ~queries ~n_servers
    ~pick_next:(Schedulers.pick scheduler)
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  Metrics.avg_loss metrics

let test_sla_tree_beats_lwl_end_to_end () =
  let cfg =
    Trace.config ~kind:Workloads.Pareto ~profile:Workloads.Sla_a ~load:0.9
      ~servers:3 ~n_queries:4_000 ~seed:31337 ()
  in
  let queries = Trace.generate cfg in
  let rate = 1.0 /. Workloads.nominal_mean_ms Workloads.Pareto in
  let sched = Schedulers.cbs_sla_tree ~rate in
  let planner = Planner.cbs ~rate in
  let lwl = avg_loss Dispatchers.lwl sched queries ~n_servers:3 ~warmup:1000 in
  let tree =
    avg_loss (Dispatchers.sla_tree planner) sched queries ~n_servers:3
      ~warmup:1000
  in
  check_bool
    (Printf.sprintf "tree %.3f < lwl %.3f" tree lwl)
    true (tree < lwl)

(* ------------------------------------------------------------------ *)
(* Observability under faults: a dispatch that raises (a pool crash
   leaves no server accepting work) still took a decision and still
   spent the time, so the timed wrapper must record the latency and
   the decision count before re-raising — otherwise the telemetry
   silently under-reports exactly the churny intervals it should be
   illuminating. *)

let test_timed_records_raising_dispatch () =
  let obs = Obs.create () in
  let metrics = Metrics.create ~warmup_id:0 () in
  (* q0 occupies the only server; a timer crashes it mid-run, so q1's
     arrival finds no dispatchable server and the dispatch raises. *)
  let queries = [| mk 0 0.0 20.0; mk 1 10.0 1.0 |] in
  let timers =
    [| (5.0, fun sim -> ignore (Sim.crash_server sim 0 : Query.t list)) |]
  in
  let raised =
    match
      Sim.run ~queries ~n_servers:1 ~pick_next:fcfs_pick
        ~dispatch:(Dispatchers.instantiate ~obs (Dispatchers.sla_tree Planner.fcfs))
        ~timers ~metrics ()
    with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "no-server raise propagates" true raised;
  let reg = Obs.registry obs in
  check_int "raising decision still counted" 2
    (Obs.Registry.count (Obs.Registry.counter reg "dispatch.decisions"));
  check_int "raising decision latency still observed" 2
    (Obs.Registry.observations
       (Obs.Registry.histogram reg "dispatch.decision_ns"))

let qtest = QCheck_alcotest.to_alcotest

let prop_dispatch_always_valid_server =
  QCheck.Test.make ~name:"dispatchers return valid servers" ~count:50
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let cfg =
        Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.8
          ~servers:3 ~n_queries:150 ~seed ()
      in
      let queries = Trace.generate cfg in
      List.for_all
        (fun d ->
          let targets, m = run_recording d queries ~n_servers:3 in
          Metrics.completed_count m = 150
          && List.for_all
               (function Some s -> s >= 0 && s < 3 | None -> false)
               targets)
        [
          Dispatchers.round_robin;
          Dispatchers.lwl;
          Dispatchers.sla_tree Planner.fcfs;
          Dispatchers.sla_tree (Planner.cbs ~rate:0.05);
        ])

let () =
  Alcotest.run "dispatch"
    [
      ( "round-robin",
        [
          Alcotest.test_case "cycles" `Quick test_round_robin_cycles;
          Alcotest.test_case "fresh state per run" `Quick
            test_round_robin_fresh_state_per_instantiation;
        ] );
      ( "lwl",
        [
          Alcotest.test_case "picks idle server" `Quick test_lwl_picks_idle_server;
          Alcotest.test_case "counts buffered work" `Quick test_lwl_counts_buffered_work;
          Alcotest.test_case "uses estimates" `Quick test_lwl_uses_estimates_not_actuals;
        ] );
      ( "sita",
        [
          Alcotest.test_case "equal-work cutoffs" `Quick test_sita_cutoffs_equal_work;
          Alcotest.test_case "degenerate sample" `Quick test_sita_cutoffs_degenerate;
          Alcotest.test_case "class_of" `Quick test_sita_class_of;
          Alcotest.test_case "separates sizes" `Quick test_sita_separates_sizes;
          Alcotest.test_case "for_workload" `Quick test_sita_for_workload_runs;
          Alcotest.test_case "random dispatcher" `Quick test_random_dispatcher;
        ] );
      ( "sla-tree",
        [
          Alcotest.test_case "prefers idle" `Quick test_sla_tree_dispatch_prefers_idle;
          Alcotest.test_case "reports delta" `Quick test_sla_tree_dispatch_reports_delta;
          Alcotest.test_case "avoids harming fragile buffers" `Quick
            test_sla_tree_dispatch_avoids_harm;
          Alcotest.test_case "admission control" `Quick
            test_admission_control_rejects_harmful;
          Alcotest.test_case "insertion profit on empty server" `Quick
            test_insertion_profit_empty_server;
          Alcotest.test_case "heterogeneous insertion profit" `Quick
            test_insertion_profit_heterogeneous;
          Alcotest.test_case "heterogeneous end-to-end" `Slow
            test_heterogeneous_end_to_end;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "insertion profit at slack 0 and tau" `Quick
            test_insertion_profit_slack_edges;
        ] );
      ( "timed-wrapper",
        [
          Alcotest.test_case "raising dispatch is recorded" `Quick
            test_timed_records_raising_dispatch;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "SLA-tree beats LWL" `Slow test_sla_tree_beats_lwl_end_to_end;
          qtest prop_dispatch_always_valid_server;
        ] );
    ]
