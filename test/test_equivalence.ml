(* Incremental-vs-rebuild equivalence: the ISSUE's contract is that the
   incremental SLA-tree scheduler and the O(1) FCFS dispatcher make
   exactly the same decisions as the rebuild-per-decision paths they
   replace. Both paths are driven inside one simulation run, so every
   single decision is compared on identical state. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let trace ~kind ~sigma2 ~load ~servers ~n_queries ~seed =
  let error =
    if sigma2 > 0.0 then Estimate_error.gaussian ~sigma2 ()
    else Estimate_error.none
  in
  Trace.generate
    (Trace.config ~error ~kind ~profile:Workloads.Sla_b ~load ~servers
       ~n_queries ~seed ())

(* ------------------------------------------------------------------ *)
(* Scheduler: Incr_sched vs Schedulers.fcfs_sla_tree (rebuild). *)

(* Runs one simulation where each scheduling decision is answered by
   the live incremental tree AND recomputed from scratch; returns
   (decisions, mismatches, state) so callers can also assert on the
   fast/rebuilt counters. *)
let run_scheduler_both ?drop_policy ?ticker ~queries ~servers () =
  let st = Incr_sched.create () in
  let rebuild = Schedulers.pick Schedulers.fcfs_sla_tree in
  let decisions = ref 0 and mismatches = ref 0 in
  let pick ~now buffer =
    let a = Incr_sched.pick st ~now buffer in
    let b = rebuild ~now buffer in
    incr decisions;
    if a <> b then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?drop_policy ?ticker
    ~on_server_event:(Incr_sched.hook st)
    ~queries ~n_servers:servers ~pick_next:pick
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  (!decisions, !mismatches, st)

let test_scheduler_equiv_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:3
      ~n_queries:1_500 ~seed:101
  in
  let decisions, mismatches, st = run_scheduler_both ~queries ~servers:3 () in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches" 0 mismatches;
  check_bool
    (Printf.sprintf "fast path dominates (%d fast vs %d rebuilt)"
       (Incr_sched.fast_decisions st)
       (Incr_sched.rebuilt_decisions st))
    true
    (Incr_sched.fast_decisions st > Incr_sched.rebuilt_decisions st)

let test_scheduler_equiv_pareto () =
  (* Heavy-tailed sizes plus estimation error: completions drift far
     from the estimates, exercising pop_head's delay absorption. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.05 ~servers:2
      ~n_queries:1_500 ~seed:202
  in
  let decisions, mismatches, _ = run_scheduler_both ~queries ~servers:2 () in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches" 0 mismatches

let test_scheduler_equiv_with_drops () =
  (* Overload with the drop policy on: Dropped events dirty the live
     trees and force the reconstruct path; picks must still agree. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.6 ~servers:2
      ~n_queries:1_200 ~seed:303
  in
  let _, mismatches, _ =
    run_scheduler_both ~drop_policy:Sim.drop_past_last_deadline ~queries
      ~servers:2 ()
  in
  check_int "no pick mismatches under drops" 0 mismatches

let prop_scheduler_equiv_random_seeds =
  QCheck.Test.make ~name:"scheduler picks equal over random seeds" ~count:8
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, heavy) ->
      let kind = if heavy then Workloads.Pareto else Workloads.Exp in
      let queries =
        trace ~kind ~sigma2:0.2 ~load:1.0 ~servers:2 ~n_queries:1_000 ~seed
      in
      let _, mismatches, _ = run_scheduler_both ~queries ~servers:2 () in
      mismatches = 0)

let test_scheduler_equiv_tenant_tiers () =
  (* Tenant tiers scale SLA-B's gains by 0.6/1.3/1.5, so a postpone loss
     is no longer a small integer. A rush whose own gain exactly equals
     its loss nets 0 in the static tree's m = 0 prefix sum; a live tree
     that answers with a difference of prefix sums nets +-1 ulp and
     picks differently. *)
  let reg = Tenancy.default_registry () in
  List.iter
    (fun (servers, load, n_queries, sigma2, seed) ->
      let queries =
        Tenancy.assign reg
          (trace ~kind:Workloads.Exp ~sigma2 ~load ~servers ~n_queries ~seed)
      in
      let decisions, mismatches, _ = run_scheduler_both ~queries ~servers () in
      check_bool "made decisions" true (decisions > 1_000);
      check_int
        (Printf.sprintf "no pick mismatches (%d servers, sigma2 %.1f, seed %d)"
           servers sigma2 seed)
        0 mismatches)
    [
      (2, 1.0, 3_000, 0.0, 3);
      (2, 1.0, 3_000, 0.0, 101);
      (2, 1.0, 3_000, 0.2, 1);
      (3, 1.1, 2_000, 0.2, 101);
    ]

let test_scheduler_end_to_end_metrics_equal () =
  (* Whole-trajectory check through the public Schedulers API: the
     incremental variant (with its hook installed) must reproduce the
     rebuild variant's metrics bit-for-bit. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:3
      ~n_queries:1_500 ~seed:404
  in
  let run sched =
    let metrics = Metrics.create ~warmup_id:500 () in
    let pick_next, hook = Schedulers.instantiate sched in
    Sim.run ?on_server_event:hook ~queries ~n_servers:3 ~pick_next
      ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
      ~metrics ();
    metrics
  in
  let a = run Schedulers.fcfs_sla_tree in
  let b = run Schedulers.fcfs_sla_tree_incr in
  Alcotest.(check (float 0.0))
    "identical avg loss" (Metrics.avg_loss a) (Metrics.avg_loss b);
  Alcotest.(check (float 0.0))
    "identical avg response" (Metrics.avg_response a) (Metrics.avg_response b);
  check_int "identical late count" (Metrics.late_count a) (Metrics.late_count b)

let test_scheduler_equiv_no_hook () =
  (* Driven without its hook (through [Schedulers.pick]), nothing
     maintains the live trees, so every pick must rebuild rather than
     trust a tree that merely holds as many queries as the buffer. *)
  List.iter
    (fun (servers, load, seed) ->
      let queries =
        trace ~kind:Workloads.Exp ~sigma2:0.0 ~load ~servers ~n_queries:3_000
          ~seed
      in
      let no_hook = Schedulers.pick Schedulers.fcfs_sla_tree_incr in
      let rebuild = Schedulers.pick Schedulers.fcfs_sla_tree in
      let decisions = ref 0 and mismatches = ref 0 in
      let pick ~now buffer =
        let a = no_hook ~now buffer in
        let b = rebuild ~now buffer in
        incr decisions;
        if a <> b then incr mismatches;
        a
      in
      Sim.run ~queries ~n_servers:servers ~pick_next:pick
        ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
        ~metrics:(Metrics.create ~warmup_id:0 ())
        ();
      check_bool "made decisions" true (!decisions > 1_000);
      check_int
        (Printf.sprintf "no pick mismatches (%d servers, load %.1f)" servers
           load)
        0 !mismatches)
    [ (1, 0.9, 1401); (2, 1.0, 1402); (3, 1.1, 1403); (4, 1.0, 1404) ]

(* ------------------------------------------------------------------ *)
(* Dispatcher: fcfs_sla_tree_incr vs sla_tree Planner.fcfs. *)

(* A scripted elasticity scenario for the ?ticker hook: grow the pool
   twice, then drain two servers (redistributing their buffers), so
   the incremental state must survive membership changes. *)
let scale_script () =
  let n = ref 0 in
  fun sim ->
    incr n;
    match !n with
    | 4 | 8 -> ignore (Sim.add_server sim)
    | 12 | 16 ->
      (* Retire the lowest-sid server still accepting work, keeping at
         least one accepting. *)
      if Sim.dispatchable_count sim > 1 then begin
        let sid = ref (-1) in
        for i = Sim.n_servers sim - 1 downto 0 do
          if Sim.dispatchable sim i then sid := i
        done;
        if !sid >= 0 then Sim.retire_server sim !sid
      end
    | _ -> ()

let test_scheduler_equiv_elastic () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:808
  in
  let decisions, mismatches, _ =
    run_scheduler_both ~ticker:(400.0, scale_script ()) ~queries ~servers:3 ()
  in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches across scale events" 0 mismatches

(* Satellite invariant of the rejection accounting: whenever the run
   is quiescent, every offered query was either admitted or rejected —
   refusals never leak into (or out of) the measured flow. *)
let check_balance m =
  check_int "offered = admitted + rejected" (Metrics.offered_count m)
    (Metrics.admitted_count m + Metrics.rejected_count m)

let run_dispatcher_both ?speeds ?ticker ~admission ~queries ~servers () =
  let d_incr = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree_incr ~admission ()) in
  let d_tree = Dispatchers.instantiate (Dispatchers.sla_tree ~admission Planner.fcfs) in
  let decisions = ref 0 and mismatches = ref 0 in
  let dispatch sim q =
    let a = d_incr sim q in
    let b = d_tree sim q in
    incr decisions;
    if a.Sim.target <> b.Sim.target then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?speeds ?ticker ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch ~metrics ();
  check_balance metrics;
  (!decisions, !mismatches)

let test_dispatcher_equiv_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:4
      ~n_queries:1_500 ~seed:505
  in
  let decisions, mismatches =
    run_dispatcher_both ~admission:false ~queries ~servers:4 ()
  in
  check_int "every arrival dispatched through both" 1_500 decisions;
  check_int "no target mismatches" 0 mismatches

let test_dispatcher_equiv_pareto_heterogeneous () =
  (* Heterogeneous speeds: the O(1) profit must keep the paper's
     per-server speed scaling exactly like the tree-based what-if. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:606
  in
  let _, mismatches =
    run_dispatcher_both ~speeds:[| 1.0; 0.5; 2.0 |] ~admission:false ~queries
      ~servers:3 ()
  in
  check_int "no target mismatches (heterogeneous)" 0 mismatches

let test_dispatcher_equiv_admission () =
  (* Saturated farm with admission control: accept/reject decisions
     (target = None) must also coincide. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.6 ~servers:2
      ~n_queries:1_200 ~seed:707
  in
  let _, mismatches =
    run_dispatcher_both ~admission:true ~queries ~servers:2 ()
  in
  check_int "no accept/reject mismatches" 0 mismatches

let test_dispatcher_equiv_elastic () =
  (* Same scripted scale-up/drain scenario on the dispatcher pair:
     redistributed buffers arrive as ordinary dispatches and both
     paths must choose the same target throughout. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:909
  in
  let decisions, mismatches =
    run_dispatcher_both ~ticker:(400.0, scale_script ()) ~admission:false
      ~queries ~servers:3 ()
  in
  check_bool "dispatched (arrivals + redistributions)" true (decisions >= 1_500);
  check_int "no target mismatches across scale events" 0 mismatches

let prop_dispatcher_equiv_random_seeds =
  QCheck.Test.make ~name:"dispatcher targets equal over random seeds" ~count:8
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, heavy) ->
      let kind = if heavy then Workloads.Pareto else Workloads.Exp in
      let queries =
        trace ~kind ~sigma2:0.2 ~load:1.0 ~servers:3 ~n_queries:1_000 ~seed
      in
      let _, mismatches =
        run_dispatcher_both ~admission:false ~queries ~servers:3 ()
      in
      mismatches = 0)

(* ------------------------------------------------------------------ *)
(* Memoized vs rebuild-per-candidate dispatch: the default dispatcher
   (memoized probes, one cached tree per server) against the historical
   oracle (no cache, a tree rebuilt for every candidate), decision by
   decision on identical state. The group keeps its old "flat-vs-boxed"
   name; the boxed tree itself is now pinned against the flat one at
   the cascade and facade level, bit for bit, in test_flat.ml. *)

let run_dispatcher_memo_oracle ?speeds ?ticker ?timers
    ?(planner = Planner.fcfs) ?(admission = false) ~queries ~servers () =
  let d_memo =
    Dispatchers.instantiate (Dispatchers.sla_tree ~admission planner)
  in
  let d_oracle =
    Dispatchers.instantiate
      (Dispatchers.sla_tree ~admission ~memo:false planner)
  in
  let decisions = ref 0 and mismatches = ref 0 in
  let dispatch sim q =
    let a = d_memo sim q in
    let b = d_oracle sim q in
    incr decisions;
    if a.Sim.target <> b.Sim.target then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?speeds ?ticker ?timers ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick (Schedulers.of_planner planner))
    ~dispatch ~metrics ();
  (!decisions, !mismatches)

let test_memo_dispatch_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:4
      ~n_queries:1_500 ~seed:1201
  in
  let decisions, mismatches =
    run_dispatcher_memo_oracle ~queries ~servers:4 ()
  in
  check_int "every arrival through both" 1_500 decisions;
  check_int "no target mismatches" 0 mismatches

let test_memo_dispatch_sorted_planners () =
  (* Non-FCFS time-invariant planners exercise the O(log n) sorted
     insertion rank against the oracle's append-and-sort rank. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:0.5 ~load:1.0 ~servers:3
      ~n_queries:1_200 ~seed:1202
  in
  List.iter
    (fun planner ->
      let _, mismatches =
        run_dispatcher_memo_oracle ~planner ~queries ~servers:3 ()
      in
      check_int
        (Printf.sprintf "no mismatches under %s" (Planner.name planner))
        0 mismatches)
    [ Planner.sjf; Planner.edf; Planner.value_edf ]

let test_memo_dispatch_heterogeneous_admission () =
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.4 ~servers:3
      ~n_queries:1_200 ~seed:1203
  in
  let _, mismatches =
    run_dispatcher_memo_oracle ~speeds:[| 1.0; 0.5; 2.0 |] ~admission:true
      ~queries ~servers:3 ()
  in
  check_int "no accept/reject mismatches" 0 mismatches

let test_memo_dispatch_elastic () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:1204
  in
  let decisions, mismatches =
    run_dispatcher_memo_oracle ~ticker:(400.0, scale_script ()) ~queries
      ~servers:3 ()
  in
  check_bool "dispatched (arrivals + redistributions)" true (decisions >= 1_500);
  check_int "no mismatches across scale events" 0 mismatches

(* Fault scenario: a brownout, a crash whose orphans retry through the
   dispatcher, and two repairs. Crashes void cached probe state, so
   this is the sharpest test of the generation-keyed memoization. *)
let fault_timers () =
  [|
    (250.0, fun sim -> Sim.degrade_server sim 0 ~factor:0.4);
    ( 400.0,
      fun sim ->
        List.iter
          (fun q -> Sim.reinject sim (Query.retried q))
          (Sim.crash_server sim 1) );
    (650.0, fun sim -> Sim.restore_server sim 0);
    (800.0, fun sim -> Sim.restore_server sim 1);
  |]

let test_memo_dispatch_faults () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:1205
  in
  let decisions, mismatches =
    run_dispatcher_memo_oracle ~timers:(fault_timers ()) ~queries ~servers:3 ()
  in
  check_bool "dispatched (arrivals + retries)" true (decisions >= 1_500);
  check_int "no mismatches across crash/brownout/repair" 0 mismatches

let prop_memo_dispatch_random_seeds =
  QCheck.Test.make ~name:"memoized == rebuild, random seeds"
    ~count:8
    QCheck.(triple (int_bound 100_000) bool bool)
    (fun (seed, heavy, sorted) ->
      let kind = if heavy then Workloads.Pareto else Workloads.Exp in
      let planner = if sorted then Planner.sjf else Planner.fcfs in
      let queries =
        trace ~kind ~sigma2:0.2 ~load:1.0 ~servers:3 ~n_queries:800 ~seed
      in
      let _, mismatches =
        run_dispatcher_memo_oracle ~planner ~queries ~servers:3 ()
      in
      mismatches = 0)

let test_memo_dispatch_metrics_equal () =
  (* Whole-trajectory check through the public API: the memoized
     default must reproduce the no-cache oracle's end-to-end metrics
     bit-for-bit. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:1206
  in
  let run d =
    let metrics = Metrics.create ~warmup_id:500 () in
    Sim.run ~queries ~n_servers:3
      ~pick_next:(Schedulers.pick Schedulers.fcfs)
      ~dispatch:(Dispatchers.instantiate d)
      ~metrics ();
    metrics
  in
  let a = run (Dispatchers.sla_tree Planner.fcfs) in
  let b = run (Dispatchers.sla_tree ~memo:false Planner.fcfs) in
  Alcotest.(check (float 0.0))
    "identical avg loss" (Metrics.avg_loss a) (Metrics.avg_loss b);
  Alcotest.(check (float 0.0))
    "identical avg response" (Metrics.avg_response a) (Metrics.avg_response b);
  check_int "identical late count" (Metrics.late_count a) (Metrics.late_count b)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "equivalence"
    [
      ( "scheduler",
        [
          Alcotest.test_case "exp workload" `Quick test_scheduler_equiv_exp;
          Alcotest.test_case "pareto + estimate error" `Quick
            test_scheduler_equiv_pareto;
          Alcotest.test_case "drop policy" `Quick
            test_scheduler_equiv_with_drops;
          Alcotest.test_case "end-to-end metrics equal" `Quick
            test_scheduler_end_to_end_metrics_equal;
          Alcotest.test_case "elastic pool" `Quick test_scheduler_equiv_elastic;
          Alcotest.test_case "without the hook" `Quick
            test_scheduler_equiv_no_hook;
          Alcotest.test_case "scheduler picks equal under tenant tier gains"
            `Quick test_scheduler_equiv_tenant_tiers;
          qtest prop_scheduler_equiv_random_seeds;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "exp workload" `Quick test_dispatcher_equiv_exp;
          Alcotest.test_case "pareto heterogeneous" `Quick
            test_dispatcher_equiv_pareto_heterogeneous;
          Alcotest.test_case "admission control" `Quick
            test_dispatcher_equiv_admission;
          Alcotest.test_case "elastic pool" `Quick test_dispatcher_equiv_elastic;
          qtest prop_dispatcher_equiv_random_seeds;
        ] );
      ( "flat-vs-boxed",
        [
          Alcotest.test_case "exp workload" `Quick test_memo_dispatch_exp;
          Alcotest.test_case "sorted planners" `Quick
            test_memo_dispatch_sorted_planners;
          Alcotest.test_case "heterogeneous + admission" `Quick
            test_memo_dispatch_heterogeneous_admission;
          Alcotest.test_case "elastic pool" `Quick test_memo_dispatch_elastic;
          Alcotest.test_case "faults (crash, brownout, repair)" `Quick
            test_memo_dispatch_faults;
          Alcotest.test_case "end-to-end metrics equal" `Quick
            test_memo_dispatch_metrics_equal;
          qtest prop_memo_dispatch_random_seeds;
        ] );
    ]
