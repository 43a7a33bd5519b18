(* Decision equivalence: each production decision path against the
   oracle it replaced. The scan-priced SLA-tree scheduler against the
   tree-priced pick, the least-work FCFS dispatcher against the full
   scan, and scan-priced insertion and admission against the tree.
   Both sides are driven inside one simulation run wherever possible,
   so every single decision is compared on identical state. *)

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
(* Scheduler: the scan-priced pick ([Schedulers.fcfs_sla_tree], whose
   rush probes scan each candidate's predecessors) vs the tree-priced
   oracle pick over the same buffer ([Rush_oracle.best_rush] over
   [Sla_tree.build ~now buffer], probing every candidate). The scan's
   gains may differ from the tree's in the last bits; the contract is
   the same pick at every decision. *)

let tree_pick ~now buffer =
  match Rush_oracle.best_rush (Sla_tree.build ~now buffer) with
  | Some (i, _) -> i
  | None -> invalid_arg "tree_pick: empty buffer"

(* Runs one simulation where each scheduling decision is made by the
   scan AND by the tree oracle; returns (decisions, mismatches). *)
let run_scheduler_both ?drop_policy ?ticker ~queries ~servers () =
  let scan = Schedulers.pick Schedulers.fcfs_sla_tree in
  let decisions = ref 0 and mismatches = ref 0 in
  let pick ~now buffer =
    let a = scan ~now buffer in
    let b = tree_pick ~now buffer in
    incr decisions;
    if a <> b then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?drop_policy ?ticker ~queries ~n_servers:servers ~pick_next:pick
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  (!decisions, !mismatches)

let test_scheduler_equiv_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:3
      ~n_queries:1_500 ~seed:101
  in
  let decisions, mismatches = run_scheduler_both ~queries ~servers:3 () in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches" 0 mismatches

let test_scheduler_equiv_pareto () =
  (* Heavy-tailed sizes plus estimation error: completions drift far
     from the estimates, so decision times fall off the planned
     schedule. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.05 ~servers:2
      ~n_queries:1_500 ~seed:202
  in
  let decisions, mismatches = run_scheduler_both ~queries ~servers:2 () in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches" 0 mismatches

let test_scheduler_equiv_with_drops () =
  (* Overload with the drop policy on: buffers lose interior queries
     between decisions; picks must still agree. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.6 ~servers:2
      ~n_queries:1_200 ~seed:303
  in
  let _, mismatches =
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
      let _, mismatches = run_scheduler_both ~queries ~servers:2 () in
      mismatches = 0)

let test_scheduler_equiv_tenant_tiers () =
  (* Tenant tiers scale SLA-B's gains by 0.6/1.3/1.5, so a postpone loss
     is no longer a small integer, and the scan's left-to-right sum and
     the tree's prefix sums can round differently. A rush whose own
     gain equals its loss nets 0 only where the sum is exact. *)
  let reg = Tenancy.default_registry () in
  List.iter
    (fun (servers, load, n_queries, sigma2, seed) ->
      let queries =
        Tenancy.assign reg
          (trace ~kind:Workloads.Exp ~sigma2 ~load ~servers ~n_queries ~seed)
      in
      let decisions, mismatches = run_scheduler_both ~queries ~servers () in
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
     shipped scheduler must reproduce the tree-priced oracle's metrics
     bit-for-bit. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:3
      ~n_queries:1_500 ~seed:404
  in
  let run pick_next =
    let metrics = Metrics.create ~warmup_id:500 () in
    Sim.run ~queries ~n_servers:3 ~pick_next
      ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
      ~metrics ();
    metrics
  in
  let a = run tree_pick in
  let b = run (Schedulers.pick Schedulers.fcfs_sla_tree) in
  Alcotest.(check (float 0.0))
    "identical avg loss" (Metrics.avg_loss a) (Metrics.avg_loss b);
  Alcotest.(check (float 0.0))
    "identical avg response" (Metrics.avg_response a) (Metrics.avg_response b);
  check_int "identical late count" (Metrics.late_count a) (Metrics.late_count b)

(* The serving workload's trace shape (8 servers, 20 000 tenant-tagged
   Exp SLA-B queries at load 0.9, warm-up 2 000, tenancy admission,
   the FCFS SLA-tree dispatcher) under the scheduler the daemon serves
   and under the tree-priced pick: the same [avg_loss] bits. On seed
   102 the incremental tree this scheduler replaced read
   0.7118029051552214 against the tree's 0.7118029051552213. *)
let test_scheduler_serve_trace () =
  let reg = Tenancy.default_registry () in
  List.iter
    (fun seed ->
      let queries =
        Tenancy.assign reg
          (Trace.generate
             (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b
                ~load:0.9 ~servers:8 ~n_queries:20_000 ~seed ()))
      in
      let run ?on_server_event pick_next =
        let acct = Tenancy.Acct.create reg ~warmup_id:2_000 in
        let metrics = Metrics.create ~warmup_id:2_000 () in
        Sim.run
          ~admit:(Tenancy.admit (Tenancy.admission reg ~acct ()))
          ?on_server_event ~queries ~n_servers:8 ~pick_next
          ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
          ~metrics ();
        Metrics.avg_loss metrics
      in
      (* wired as the serving workload wires it *)
      let served =
        let pick_next, hook =
          Schedulers.instantiate Schedulers.fcfs_sla_tree_incr
        in
        run ?on_server_event:hook pick_next
      in
      let oracle = run tree_pick in
      Alcotest.(check string)
        (Printf.sprintf "avg_loss bits, seed %d" seed)
        (Printf.sprintf "%h" oracle)
        (Printf.sprintf "%h" served))
    [ 102; 103; 302 ]

(* Retire the lowest-sid server still accepting work, keeping at
   least one accepting. *)
let retire_lowest sim =
  if Sim.dispatchable_count sim > 1 then begin
    let sid = ref (-1) in
    for i = Sim.n_servers sim - 1 downto 0 do
      if Sim.dispatchable sim i then sid := i
    done;
    if !sid >= 0 then Sim.retire_server sim !sid
  end

(* A scripted elasticity scenario for the ?ticker hook: grow the pool
   twice, then drain two servers (redistributing their buffers), so
   per-server state must survive membership changes. *)
let scale_script () =
  let n = ref 0 in
  fun sim ->
    incr n;
    match !n with
    | 4 | 8 -> ignore (Sim.add_server sim)
    | 12 | 16 -> retire_lowest sim
    | _ -> ()

let test_scheduler_equiv_elastic () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:808
  in
  let decisions, mismatches =
    run_scheduler_both ~ticker:(400.0, scale_script ()) ~queries ~servers:3 ()
  in
  check_bool "made decisions" true (decisions > 500);
  check_int "no pick mismatches across scale events" 0 mismatches

(* ------------------------------------------------------------------ *)
(* Dispatcher: fcfs_sla_tree vs sla_tree Planner.fcfs. *)

(* Satellite invariant of the rejection accounting: whenever the run
   is quiescent, every offered query was either admitted or rejected —
   refusals never leak into (or out of) the measured flow. *)
let check_balance m =
  check_int "offered = admitted + rejected" (Metrics.offered_count m)
    (Metrics.admitted_count m + Metrics.rejected_count m)

let run_dispatcher_both ?speeds ?ticker ~admission ~queries ~servers () =
  let d_fcfs = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ~admission ()) in
  let d_tree = Dispatchers.instantiate (Dispatchers.sla_tree ~admission Planner.fcfs) in
  let decisions = ref 0 and mismatches = ref 0 in
  let dispatch sim q =
    let a = d_fcfs sim q in
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

(* FCFS dispatch vs the full scan ([Dispatch_oracle]), decision by
   decision on identical state: the same target and the same
   [est_delta] bits. [Dispatchers.fcfs_best] reads the least-work index
   ([Sim.least_work]) and settles its per-speed-class champions with
   the exact rule. The draw covers what that rule's tie-breaks depend
   on: equal or mixed speeds (completion time and work left order
   servers alike only within a speed class), integer SLA-A/B gains or
   tenant tier gains (profit ties), estimation error (overrun servers),
   admission, and a pool that grows by a booting server and loses
   another mid-run. *)
type prune_case = {
  p_servers : int;
  p_speeds : float array option;  (* None: all 1.0 *)
  p_new_speed : float;
  p_sla : [ `A | `B | `Tenants ];
  p_sigma2 : float;
  p_admission : bool;
  p_heavy : bool;
  p_load : float;
  p_seed : int;
}

let print_prune_case c =
  Printf.sprintf
    "servers=%d speeds=%s new=%g sla=%s sigma2=%g admission=%b %s load=%g \
     seed=%d"
    c.p_servers
    (match c.p_speeds with
    | None -> "1.0"
    | Some a -> String.concat "," (Array.to_list (Array.map string_of_float a)))
    c.p_new_speed
    (match c.p_sla with `A -> "A" | `B -> "B" | `Tenants -> "tenants")
    c.p_sigma2 c.p_admission
    (if c.p_heavy then "pareto" else "exp")
    c.p_load c.p_seed

let arbitrary_prune_case ~max_servers =
  let speed = QCheck.Gen.oneofl [ 0.5; 1.0; 2.0 ] in
  QCheck.make ~print:print_prune_case
    QCheck.Gen.(
      let* p_servers = 1 -- max_servers in
      let* mixed = bool in
      let* speeds = array_repeat p_servers speed in
      let* p_new_speed = speed in
      let* p_sla = oneofl [ `A; `B; `Tenants ] in
      let* p_sigma2 = oneofl [ 0.0; 0.2; 1.0 ] in
      let* p_admission = bool in
      let* p_heavy = bool in
      let* p_load = oneofl [ 0.7; 1.0; 1.3 ] in
      let* p_seed = int_bound 100_000 in
      return
        {
          p_servers;
          p_speeds = (if mixed then Some speeds else None);
          p_new_speed = (if mixed then p_new_speed else 1.0);
          p_sla;
          p_sigma2;
          p_admission;
          p_heavy;
          p_load;
          p_seed;
        })

(* Adds a server at the second tick, booting for one interval, and
   retires one at the fourth. *)
let boot_and_retire ~speed ~interval =
  let n = ref 0 in
  fun sim ->
    incr n;
    match !n with
    | 2 -> ignore (Sim.add_server ~speed ~boot_delay:interval sim)
    | 4 -> retire_lowest sim
    | _ -> ()

let dispatchable_sids sim =
  List.filter (Sim.dispatchable sim) (List.init (Sim.n_servers sim) Fun.id)

(* A ticker that churns every state the least-work index mirrors, one
   event per tick: (1) crash the busiest server, so it leaves orphans,
   and re-inject them; (2) degrade the lowest server by 0.5 and add two
   booting servers, one whose boot ends exactly at an arrival about 20
   queries ahead (one that [now + (a - now)] reproduces) and one whose
   boot ends before the next arrival, so no read sees it booting;
   (3) restore the crashed server; (4) retire one with redistribution
   and (5) one without; (6) restore the degraded one. *)
let churn_ticker ~new_speed queries =
  let tick = ref 0 and crashed = ref (-1) and degraded = ref (-1) in
  let work sim sid = Sim.est_work_left sim (Sim.server sim sid) in
  fun sim ->
    incr tick;
    match (!tick, List.rev (dispatchable_sids sim)) with
    | 1, (first :: _ :: _ as ds) ->
      let busiest =
        List.fold_left
          (fun b sid -> if work sim sid > work sim b then sid else b)
          first ds
      in
      crashed := busiest;
      List.iter
        (fun q -> Sim.reinject sim (Query.retried q))
        (Sim.crash_server sim busiest)
    | 2, ds ->
      (match List.rev ds with
      | low :: _ ->
        degraded := low;
        Sim.degrade_server sim low ~factor:0.5
      | [] -> ());
      let now = Sim.now sim in
      let later =
        List.filter
          (fun q ->
            let a = q.Query.arrival in
            a > now && now +. (a -. now) = a)
          (Array.to_list queries)
      in
      let boot boot_delay =
        ignore (Sim.add_server ~speed:new_speed ~boot_delay sim)
      in
      List.iteri
        (fun i q ->
          let gap = q.Query.arrival -. now in
          if i = 0 then boot (gap /. 2.0) else if i = 20 then boot gap)
        later
    | 3, _ -> if !crashed >= 0 then Sim.restore_server sim !crashed
    | 4, _ -> retire_lowest sim
    | 5, top :: _ :: _ -> Sim.retire_server ~redistribute:false sim top
    | 6, _ -> if !degraded >= 0 then Sim.restore_server sim !degraded
    | _ -> ()

(* With [churn], [churn_ticker] replaces [boot_and_retire], and
   [Dispatchers.lwl], which reads the same index, is also checked
   against its oracle at every arrival. The readers run before the
   oracles, whose [Sim.dispatchable] calls would otherwise promote
   booted servers for them. *)
let prune_mismatches ?(churn = false) c =
  let error =
    if c.p_sigma2 > 0.0 then Estimate_error.gaussian ~sigma2:c.p_sigma2 ()
    else Estimate_error.none
  in
  let queries =
    Trace.generate
      (Trace.config ~error
         ~kind:(if c.p_heavy then Workloads.Pareto else Workloads.Exp)
         ~profile:(if c.p_sla = `A then Workloads.Sla_a else Workloads.Sla_b)
         ~load:c.p_load ~servers:c.p_servers ~n_queries:600 ~seed:c.p_seed ())
  in
  let queries =
    if c.p_sla = `Tenants then
      Tenancy.assign (Tenancy.default_registry ()) queries
    else queries
  in
  let last = queries.(Array.length queries - 1).Query.arrival in
  let ticker =
    if churn then (last /. 8.0, churn_ticker ~new_speed:c.p_new_speed queries)
    else
      let interval = last /. 6.0 in
      (interval, boot_and_retire ~speed:c.p_new_speed ~interval)
  in
  let fcfs =
    Dispatchers.instantiate
      (Dispatchers.fcfs_sla_tree ~admission:c.p_admission ())
  in
  let lwl = Dispatchers.instantiate Dispatchers.lwl in
  let decisions = ref 0 and mismatches = ref 0 in
  let dispatch sim q =
    let a = fcfs sim q in
    let b = if churn then Some (lwl sim q) else None in
    let same =
      Dispatch_oracle.same a
        (Dispatch_oracle.dispatch ~admission:c.p_admission sim q)
      && Option.fold b ~none:true ~some:(fun b ->
             Dispatch_oracle.same b (Dispatch_oracle.lwl sim q))
    in
    incr decisions;
    if not same then incr mismatches;
    a
  in
  Sim.run ?speeds:c.p_speeds ~ticker ~queries ~n_servers:c.p_servers
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch
    ~metrics:(Metrics.create ~warmup_id:0 ())
    ();
  (!decisions, !mismatches)

let prop_pruned_dispatch_equals_full_scan =
  QCheck.Test.make ~name:"pruned dispatch == full scan (target, delta bits)"
    ~count:60 (arbitrary_prune_case ~max_servers:16) (fun c ->
      let decisions, mismatches = prune_mismatches c in
      decisions >= 600 && mismatches = 0)

(* The same contract with up to 64 servers, under [churn_ticker], for
   both readers of the index. *)
let prop_index_equals_full_scan =
  QCheck.Test.make
    ~name:"least-work index == full scan under churn (fcfs, lwl)" ~count:80
    (arbitrary_prune_case ~max_servers:64) (fun c ->
      let decisions, mismatches = prune_mismatches ~churn:true c in
      decisions >= 600 && mismatches = 0)

(* Fixed cases for what random draws rarely hit. [probe_run] routes
   query [i] to [route.(i)] while [i] indexes [route]; every later query
   is a probe: [before] runs, then both readers and both oracles read
   the same state, and the probe joins the FCFS reader's pick. Returns
   each probe's (FCFS target, LWL target, both equal their oracles). *)
let probe_run ?timers ?(before = fun _ _ -> ()) ~n ~route queries =
  let fcfs = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()) in
  let lwl = Dispatchers.instantiate Dispatchers.lwl in
  let probes = ref [] in
  let dispatch sim q =
    let id = q.Query.id in
    if id < Array.length route then { Sim.target = Some route.(id); est_delta = None }
    else begin
      before sim q;
      let a = fcfs sim q in
      let b = lwl sim q in
      let same =
        Dispatch_oracle.same a (Dispatch_oracle.dispatch ~admission:false sim q)
        && Dispatch_oracle.same b (Dispatch_oracle.lwl sim q)
      in
      probes := (a.Sim.target, b.Sim.target, same) :: !probes;
      a
    end
  in
  Sim.run ?timers ~queries ~n_servers:n
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch
    ~metrics:(Metrics.create ~warmup_id:0 ())
    ();
  List.rev !probes

let lenient = Sla.single_step ~bound:10_000.0 ~gain:1.0

let q ?est id arrival size =
  Query.make ?est_size:est ~id ~arrival ~size ~sla:lenient ()

let check_probe label expected (fcfs, lwl, same) =
  Alcotest.(check (option int)) (label ^ ": FCFS target") (Some expected) fcfs;
  Alcotest.(check (option int)) (label ^ ": LWL target") (Some expected) lwl;
  check_bool (label ^ ": readers equal their oracles") true same

let test_index_equal_keys () =
  (* At [now], server 0 runs until 676.73... with 38.18... buffered and
     server 1 until 702.17... with 12.75... buffered: their
     [est_finish + backlog] are equal bit for bit, but server 1's exact
     work left is 4 ulps smaller. A read that compared keys only would
     pick server 0. *)
  let now = 634.3642441124013 in
  let e0 = 676.7359309592629 and b0 = 38.1887309488307 in
  let e1 = 702.1712106211224 and b1 = 12.753451286971085 in
  check_bool "equal keys" true
    (Int64.bits_of_float (e0 +. b0) = Int64.bits_of_float (e1 +. b1));
  check_bool "server 1 has less work left" true
    (e1 -. now +. b1 < e0 -. now +. b0);
  match
    probe_run ~n:2 ~route:[| 0; 1; 0; 1 |]
      [| q 0 0.0 e0; q 1 0.0 e1; q 2 0.0 b0; q 3 0.0 b1; q 4 now 1.0 |]
  with
  | [ p ] -> check_probe "equal keys" 1 p
  | _ -> Alcotest.fail "one probe expected"

let test_index_overrun () =
  (* Server 0's query is estimated at 1 but runs 100, with 10 buffered
     behind it; server 1 runs 55 as estimated. A read at 0.5 keys
     server 0 at 11 and server 1 at 55, and nothing touches either
     server before the probe at 50: server 0's key still says 11, but
     its work left is 10 against server 1's 5. *)
  let timers = [| (0.5, fun sim -> ignore (Sim.least_work sim)) |] in
  match
    probe_run ~timers ~n:2 ~route:[| 0; 1; 0 |]
      [| q ~est:1.0 0 0.0 100.0; q 1 0.0 55.0; q 2 0.0 10.0; q 3 50.0 1.0 |]
  with
  | [ p ] -> check_probe "after the overrun" 1 p
  | _ -> Alcotest.fail "one probe expected"

let test_index_lazy_promotion () =
  (* Server 1 joins at 1, booting until 10. The read at 5 finds it
     booting; at 12 [Sim.dispatchable] promotes it before the next read,
     which must offer it: it is idle, server 0 is busy. *)
  let timers =
    [| (1.0, fun sim -> ignore (Sim.add_server ~boot_delay:9.0 sim)) |]
  in
  let before sim q =
    if q.Query.id = 2 then check_bool "promoted" true (Sim.dispatchable sim 1)
  in
  match
    probe_run ~timers ~before ~n:1 ~route:[| 0 |]
      [| q 0 0.0 100.0; q 1 5.0 0.0; q 2 12.0 1.0 |]
  with
  | [ booting; promoted ] ->
    check_probe "while booting" 0 booting;
    check_probe "after the promotion" 1 promoted
  | _ -> Alcotest.fail "two probes expected"

let test_index_boot_ends_unread () =
  (* The read at 0.5 builds the index. Server 1 joins at 1, booting
     until 10, and nothing reads before the probe at 12: that read must
     promote it and offer it (it is idle, server 0 is busy). *)
  let timers =
    [|
      (0.5, fun sim -> ignore (Sim.least_work sim));
      (1.0, fun sim -> ignore (Sim.add_server ~boot_delay:9.0 sim));
    |]
  in
  match
    probe_run ~timers ~n:1 ~route:[| 0 |] [| q 0 0.0 100.0; q 1 12.0 1.0 |]
  with
  | [ p ] -> check_probe "boot ended unread" 1 p
  | _ -> Alcotest.fail "one probe expected"

(* ------------------------------------------------------------------ *)
(* Scan-priced vs tree-priced dispatch: [Dispatchers.sla_tree], which
   prices every candidate with [Dispatchers.insertion_profit]'s scan,
   against [Dispatch_oracle.dispatch] pricing each candidate with the
   tree-built probe ([Insertion_oracle]), decision by decision on
   identical state. The scenarios cover what the scan reads: sorted
   planners (binary-search rank against the oracle's append-and-sort
   rank), heterogeneous speeds with admission, a pool that grows and
   shrinks, and crash, brownout and repair. The contract is the same
   target; the deltas may differ in the last bits, where the scan sums
   displaced gains in rank order. The group keeps its old
   "flat-vs-boxed" name; the boxed tree itself is pinned against the
   flat one at the cascade and facade level, bit for bit, in
   test_flat.ml. *)

let run_dispatcher_tree_oracle ?speeds ?ticker ?timers
    ?(planner = Planner.fcfs) ?(admission = false) ~queries ~servers () =
  let d_scan =
    Dispatchers.instantiate (Dispatchers.sla_tree ~admission planner)
  in
  let decisions = ref 0 and mismatches = ref 0 in
  let dispatch sim q =
    let a = d_scan sim q in
    let b =
      Dispatch_oracle.dispatch
        ~profit:(Insertion_oracle.insertion_profit planner)
        ~admission sim q
    in
    incr decisions;
    if a.Sim.target <> b.Sim.target then incr mismatches;
    a
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ?speeds ?ticker ?timers ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick (Schedulers.of_planner planner))
    ~dispatch ~metrics ();
  (!decisions, !mismatches)

let test_scan_dispatch_exp () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:0.95 ~servers:4
      ~n_queries:1_500 ~seed:1201
  in
  let decisions, mismatches =
    run_dispatcher_tree_oracle ~queries ~servers:4 ()
  in
  check_int "every arrival through both" 1_500 decisions;
  check_int "no target mismatches" 0 mismatches

let test_scan_dispatch_sorted_planners () =
  (* Non-FCFS time-invariant planners exercise the O(log n) sorted
     insertion rank against the oracle's append-and-sort rank. *)
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:0.5 ~load:1.0 ~servers:3
      ~n_queries:1_200 ~seed:1202
  in
  List.iter
    (fun planner ->
      let _, mismatches =
        run_dispatcher_tree_oracle ~planner ~queries ~servers:3 ()
      in
      check_int
        (Printf.sprintf "no mismatches under %s" (Planner.name planner))
        0 mismatches)
    [ Planner.sjf; Planner.edf; Planner.value_edf ]

let test_scan_dispatch_heterogeneous_admission () =
  let queries =
    trace ~kind:Workloads.Pareto ~sigma2:1.0 ~load:1.4 ~servers:3
      ~n_queries:1_200 ~seed:1203
  in
  let _, mismatches =
    run_dispatcher_tree_oracle ~speeds:[| 1.0; 0.5; 2.0 |] ~admission:true
      ~queries ~servers:3 ()
  in
  check_int "no accept/reject mismatches" 0 mismatches

let test_scan_dispatch_elastic () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.1 ~servers:3
      ~n_queries:1_500 ~seed:1204
  in
  let decisions, mismatches =
    run_dispatcher_tree_oracle ~ticker:(400.0, scale_script ()) ~queries
      ~servers:3 ()
  in
  check_bool "dispatched (arrivals + redistributions)" true (decisions >= 1_500);
  check_int "no mismatches across scale events" 0 mismatches

(* Fault scenario: a brownout, a crash whose orphans retry through the
   dispatcher, and two repairs: the scan must read each server's speed
   and anchor as they stand after every transition. *)
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

let test_scan_dispatch_faults () =
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:1205
  in
  let decisions, mismatches =
    run_dispatcher_tree_oracle ~timers:(fault_timers ()) ~queries ~servers:3 ()
  in
  check_bool "dispatched (arrivals + retries)" true (decisions >= 1_500);
  check_int "no mismatches across crash/brownout/repair" 0 mismatches

let prop_scan_dispatch_random_seeds =
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
        run_dispatcher_tree_oracle ~planner ~queries ~servers:3 ()
      in
      mismatches = 0)

let test_scan_dispatch_metrics_equal () =
  (* Whole-trajectory check: the scan-priced dispatcher must reproduce
     the tree-priced oracle's end-to-end metrics bit-for-bit. *)
  let queries =
    trace ~kind:Workloads.Exp ~sigma2:0.2 ~load:1.0 ~servers:3
      ~n_queries:1_500 ~seed:1206
  in
  let run dispatch =
    let metrics = Metrics.create ~warmup_id:500 () in
    Sim.run ~queries ~n_servers:3
      ~pick_next:(Schedulers.pick Schedulers.fcfs)
      ~dispatch ~metrics ();
    metrics
  in
  let a = run (Dispatchers.instantiate (Dispatchers.sla_tree Planner.fcfs)) in
  let b =
    run
      (Dispatch_oracle.dispatch
         ~profit:(Insertion_oracle.insertion_profit Planner.fcfs)
         ~admission:false)
  in
  Alcotest.(check (float 0.0))
    "identical avg loss" (Metrics.avg_loss a) (Metrics.avg_loss b);
  Alcotest.(check (float 0.0))
    "identical avg response" (Metrics.avg_response a) (Metrics.avg_response b);
  check_int "identical late count" (Metrics.late_count a) (Metrics.late_count b)

(* ------------------------------------------------------------------ *)
(* Insertion pricing by scan vs the tree it replaced
   ([Insertion_oracle]), probe by probe on identical state: at every
   arrival, every dispatchable server prices the query, and a
   tenant-tagged query's degraded copy, both ways. Nets are bit-equal
   when the newcomer appends or has a zero estimate, and otherwise
   agree within 1e-9 relative (the displaced gains are summed in rank
   order, not by the tree's prefix difference). The draw covers what
   the scan reads: the planner's rank (CBS also on scaled servers,
   where the rank falls back to re-sorting), speed scaling, the
   running query's anchor, integer or tier-scaled gains, and buffers
   from shallow to overloaded. *)
type scan_case = {
  s_servers : int;
  s_speeds : float array option;  (* None: all 1.0 *)
  s_sla : [ `A | `B | `Tenants ];
  s_sigma2 : float;
  s_load : float;
  s_planner : Planner.t;
  s_seed : int;
}

let scan_planners =
  [
    Planner.fcfs;
    Planner.sjf;
    Planner.edf;
    Planner.value_edf;
    Planner.cbs ~rate:(Exp_common.cbs_rate Workloads.Exp);
  ]

let print_scan_case c =
  Printf.sprintf "servers=%d speeds=%s sla=%s sigma2=%g load=%g planner=%s seed=%d"
    c.s_servers
    (match c.s_speeds with
    | None -> "1.0"
    | Some a -> String.concat "," (Array.to_list (Array.map string_of_float a)))
    (match c.s_sla with `A -> "A" | `B -> "B" | `Tenants -> "tenants")
    c.s_sigma2 c.s_load (Planner.name c.s_planner) c.s_seed

let arbitrary_scan_case =
  QCheck.make ~print:print_scan_case
    QCheck.Gen.(
      let* s_servers = 1 -- 8 in
      let* mixed = bool in
      let* speeds = array_repeat s_servers (oneofl [ 0.5; 1.0; 2.0 ]) in
      let* s_sla = oneofl [ `A; `B; `Tenants ] in
      let* s_sigma2 = oneofl [ 0.0; 0.2; 1.0 ] in
      let* s_load = oneofl [ 0.7; 1.0; 1.5 ] in
      let* s_planner = oneofl scan_planners in
      let* s_seed = int_bound 100_000 in
      return
        {
          s_servers;
          s_speeds = (if mixed then Some speeds else None);
          s_sla;
          s_sigma2;
          s_load;
          s_planner;
          s_seed;
        })

(* (probes, bit-exact probes, mismatches) over one run. *)
let scan_mismatches ?(n_queries = 400) c =
  let error =
    if c.s_sigma2 > 0.0 then Estimate_error.gaussian ~sigma2:c.s_sigma2 ()
    else Estimate_error.none
  in
  let queries =
    Trace.generate
      (Trace.config ~error ~kind:Workloads.Exp
         ~profile:(if c.s_sla = `A then Workloads.Sla_a else Workloads.Sla_b)
         ~load:c.s_load ~servers:c.s_servers ~n_queries ~seed:c.s_seed ())
  in
  let reg = Tenancy.default_registry () in
  let queries =
    if c.s_sla = `Tenants then Tenancy.assign reg queries else queries
  in
  let probes = ref 0 and exact = ref 0 and mismatches = ref 0 in
  let lwl = Dispatchers.instantiate Dispatchers.lwl in
  let dispatch sim q =
    let copies =
      match Insertion_oracle.degraded_copy reg q with
      | Some q' -> [ q; q' ]
      | None -> [ q ]
    in
    for sid = 0 to Sim.n_servers sim - 1 do
      if Sim.dispatchable sim sid then begin
        let price = Dispatchers.insertion_profit c.s_planner sim sid in
        List.iter
          (fun q ->
            let oracle, bitwise =
              Insertion_oracle.probe c.s_planner sim sid q
            in
            incr probes;
            if bitwise then incr exact;
            if not (Insertion_oracle.agrees ~exact:bitwise ~oracle (price q))
            then incr mismatches)
          copies
      end
    done;
    lwl sim q
  in
  Sim.run ?speeds:c.s_speeds ~queries ~n_servers:c.s_servers
    ~pick_next:(Schedulers.pick (Schedulers.of_planner c.s_planner))
    ~dispatch
    ~metrics:(Metrics.create ~warmup_id:0 ())
    ();
  (!probes, !exact, !mismatches)

let prop_insertion_scan_equals_tree =
  QCheck.Test.make ~name:"insertion scan == tree oracle, probe by probe"
    ~count:40 arbitrary_scan_case (fun c ->
      let probes, _, mismatches = scan_mismatches c in
      probes >= 400 && mismatches = 0)

(* CBS on scaled servers is the one case whose rank re-sorts the
   scaled plan; a fixed draw pins it, with displaced queries. *)
let test_insertion_scan_cbs_scaled () =
  let planner = Planner.cbs ~rate:(Exp_common.cbs_rate Workloads.Exp) in
  List.iter
    (fun (s_sla, s_seed) ->
      let c =
        {
          s_servers = 3;
          s_speeds = Some [| 0.5; 2.0; 1.0 |];
          s_sla;
          s_sigma2 = 0.2;
          s_load = 1.5;
          s_planner = planner;
          s_seed;
        }
      in
      let probes, exact, mismatches = scan_mismatches ~n_queries:600 c in
      check_bool "some probes displace queries" true (exact < probes);
      check_int
        (Printf.sprintf "no mismatches (%s)" (print_scan_case c))
        0 mismatches)
    [ (`B, 17); (`Tenants, 4242) ]

(* Whole runs under the serve stack (FCFS SLA-tree scheduler and
   dispatcher, tenancy admission): [Tenancy.admit] and a replica that
   prices with the tree make the same verdicts, a degraded copy with
   an equal SLA, and bit-equal metrics. Where the tree's net is
   within rounding of the margin and the two verdicts differ, the
   replica takes the scan's ([Insertion_oracle.admit]); the test
   reports how many such probes there were. *)
type admission_case = {
  a_servers : int;
  a_bursty : bool;
  a_theta : float;
  a_n : int;
  a_seed : int;
}

let admission_cases =
  (* the last one is the serve workload's trace at seed 101, cut to
     2 000 queries *)
  List.map
    (fun (a_servers, a_bursty, a_theta, a_n, a_seed) ->
      { a_servers; a_bursty; a_theta; a_n; a_seed })
    [
      (2, false, 0.0, 1_500, 1);
      (2, false, 0.5, 1_500, 2);
      (4, false, 0.0, 1_500, 3);
      (4, false, 0.5, 1_500, 4);
      (8, false, 0.5, 1_500, 5);
      (2, true, 0.0, 1_500, 6);
      (2, true, 0.5, 1_500, 7);
      (4, true, 0.0, 1_500, 8);
      (4, true, 0.5, 1_500, 9);
      (8, true, 0.0, 1_500, 10);
      (8, true, 0.5, 1_500, 11);
      (8, false, 0.0, 2_000, 101);
    ]

let admission_queries c reg =
  let tcfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
      ~servers:c.a_servers ~n_queries:c.a_n ~seed:c.a_seed ()
  in
  let queries =
    if c.a_bursty then
      let period = Float.of_int c.a_n /. Trace.arrival_rate tcfg /. 8.0 in
      Bursty.generate tcfg
        (Bursty.square ~period ~duty:0.4 ~low:0.5 ~high:2.5)
    else Trace.generate tcfg
  in
  Tenancy.assign reg queries

let admission_run ~admit ~queries ~servers =
  let verdicts = ref [] in
  let admit sim q =
    let v = admit sim q in
    verdicts := v :: !verdicts;
    v
  in
  let metrics = Metrics.create ~warmup_id:(Array.length queries / 10) () in
  Sim.run ~admit ~queries ~n_servers:servers
    ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
    ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
    ~metrics ();
  (List.rev !verdicts, metrics)

let same_verdict a b =
  match (a, b) with
  | Sim.Admit, Sim.Admit | Sim.Reject, Sim.Reject -> true
  | Sim.Degrade x, Sim.Degrade y ->
    x.Query.id = y.Query.id && Sla.equal x.Query.sla y.Query.sla
  | _ -> false

let test_admission_verdicts_equal_tree () =
  let reg = Tenancy.default_registry () in
  List.iter
    (fun c ->
      let queries = admission_queries c reg in
      let acct = Tenancy.Acct.create reg ~warmup_id:0 in
      let v_scan, m_scan =
        admission_run ~queries ~servers:c.a_servers
          ~admit:(Tenancy.admit (Tenancy.admission ~theta:c.a_theta reg ~acct ()))
      in
      let ties = ref 0 in
      let v_tree, m_tree =
        admission_run ~queries ~servers:c.a_servers
          ~admit:(Insertion_oracle.admit ~theta:c.a_theta ~ties reg)
      in
      let label what =
        Printf.sprintf "%s (%d servers, %s, theta %g, seed %d)" what
          c.a_servers
          (if c.a_bursty then "bursty" else "steady")
          c.a_theta c.a_seed
      in
      Printf.printf "%s: %d\n" (label "verdicts split at the margin") !ties;
      check_int (label "verdicts") (List.length v_tree) (List.length v_scan);
      check_bool (label "same verdicts") true
        (List.for_all2 same_verdict v_scan v_tree);
      check_bool (label "some rejected or degraded") true
        (List.exists (fun v -> v <> Sim.Admit) v_tree);
      List.iter
        (fun (what, f) -> check_int (label what) (f m_tree) (f m_scan))
        [
          ("offered", Metrics.offered_count);
          ("admitted", Metrics.admitted_count);
          ("rejected", Metrics.rejected_count);
          ("completed", Metrics.completed_count);
          ("late", Metrics.late_count);
          ("dropped", Metrics.dropped_count);
          ("lost", Metrics.lost_count);
        ];
      check_bool (label "avg_loss bits") true
        (Int64.bits_of_float (Metrics.avg_loss m_scan)
        = Int64.bits_of_float (Metrics.avg_loss m_tree)))
    admission_cases

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
          Alcotest.test_case "serve trace: avg_loss bits equal the tree's"
            `Slow test_scheduler_serve_trace;
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
          qtest prop_pruned_dispatch_equals_full_scan;
          qtest prop_index_equals_full_scan;
          Alcotest.test_case "index: equal keys, unequal work left" `Quick
            test_index_equal_keys;
          Alcotest.test_case "index: an overrun key understates its work"
            `Quick test_index_overrun;
          Alcotest.test_case "index: promoted between two reads" `Quick
            test_index_lazy_promotion;
          Alcotest.test_case "index: a boot ends with no read" `Quick
            test_index_boot_ends_unread;
        ] );
      ( "flat-vs-boxed",
        [
          Alcotest.test_case "exp workload" `Quick test_scan_dispatch_exp;
          Alcotest.test_case "sorted planners" `Quick
            test_scan_dispatch_sorted_planners;
          Alcotest.test_case "heterogeneous + admission" `Quick
            test_scan_dispatch_heterogeneous_admission;
          Alcotest.test_case "elastic pool" `Quick test_scan_dispatch_elastic;
          Alcotest.test_case "faults (crash, brownout, repair)" `Quick
            test_scan_dispatch_faults;
          Alcotest.test_case "end-to-end metrics equal" `Quick
            test_scan_dispatch_metrics_equal;
          qtest prop_scan_dispatch_random_seeds;
        ] );
      ( "scan-vs-tree",
        [
          qtest prop_insertion_scan_equals_tree;
          Alcotest.test_case "CBS on scaled servers" `Quick
            test_insertion_scan_cbs_scaled;
          Alcotest.test_case "admission verdicts equal the tree's" `Quick
            test_admission_verdicts_equal_tree;
        ] );
    ]
