(* Tests for the simulator: metrics accounting, event ordering,
   completion-time correctness on hand-computed schedules, work
   conservation, utilization, and dispatcher plumbing. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sla10 = Sla.one_zero ~bound:10.0

let mk ?(sla = sla10) ?est id arrival size =
  Query.make ?est_size:est ~id ~arrival ~size ~sla ()

(* pick_next helpers *)
let fcfs_pick ~now:_ _buffer = 0

let sjf_pick ~now:_ buffer =
  let best = ref 0 in
  Array.iteri
    (fun i q ->
      if q.Query.est_size < buffer.(!best).Query.est_size then best := i)
    buffer;
  !best

let single_dispatch _sim _q = { Sim.target = Some 0; est_delta = None }

(* Run a trace to completion and return its metrics. Per-query
   completion times are pinned down in each test through aggregate
   statistics computed from hand-derived schedules. *)
let run_collect ?(n_servers = 1) ?(pick = fcfs_pick) ?(dispatch = single_dispatch)
    queries =
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~queries ~n_servers ~pick_next:pick ~dispatch ~metrics ();
  metrics

let test_metrics_warmup () =
  let m = Metrics.create ~warmup_id:2 () in
  Metrics.record m (mk 0 0.0 1.0) ~completion:1.0;
  Metrics.record m (mk 1 0.0 1.0) ~completion:2.0;
  Metrics.record m (mk 2 0.0 1.0) ~completion:3.0;
  Metrics.record m (mk 3 0.0 1.0) ~completion:20.0;
  check_int "completed counts all" 4 (Metrics.completed_count m);
  check_int "measured skips warmup" 2 (Metrics.measured_count m);
  (* measured: q2 on time (loss 0), q3 late (loss 1). *)
  check_float "avg loss" 0.5 (Metrics.avg_loss m);
  check_int "late" 1 (Metrics.late_count m);
  check_float "late fraction" 0.5 (Metrics.late_fraction m)

let test_metrics_rejection () =
  let m = Metrics.create ~warmup_id:0 () in
  Metrics.record_offered m;
  Metrics.record_rejected m (mk 0 0.0 1.0);
  check_int "offered" 1 (Metrics.offered_count m);
  check_int "rejected" 1 (Metrics.rejected_count m);
  check_int "admitted" 0 (Metrics.admitted_count m);
  (* Rejected work never enters the system: it is excluded from the
     measured averages and its turned-away ideal profit accumulates on
     the side. *)
  check_int "not measured" 0 (Metrics.measured_count m);
  check_float "turned-away value" 1.0 (Metrics.rejected_loss m);
  check_bool "avg loss untouched" true (Float.is_nan (Metrics.avg_loss m))

let test_metrics_response () =
  let m = Metrics.create ~warmup_id:0 () in
  Metrics.record m (mk 0 5.0 1.0) ~completion:9.0;
  check_float "response" 4.0 (Metrics.avg_response m)

let test_metrics_percentiles () =
  let m = Metrics.create ~warmup_id:0 () in
  for i = 1 to 100 do
    Metrics.record m (mk i 0.0 1.0) ~completion:(Float.of_int i)
  done;
  check_float "p50" 50.5 (Metrics.response_percentile m 50.0);
  check_float "p100" 100.0 (Metrics.response_percentile m 100.0);
  check_bool "empty is nan" true
    (Float.is_nan (Metrics.response_percentile (Metrics.create ~warmup_id:0 ()) 50.0))

let test_breakdown_classes () =
  let cheap = Sla.one_zero ~bound:10.0 in
  let rich = Sla.single_step ~bound:10.0 ~gain:5.0 in
  let classify q = if Query.ideal_profit q > 1.0 then "rich" else "cheap" in
  let b = Breakdown.create ~classify ~warmup_id:1 in
  (* id 0 is warm-up and must be ignored. *)
  Breakdown.record b (mk ~sla:rich 0 0.0 1.0) ~completion:1.0;
  Breakdown.record b (mk ~sla:cheap 1 0.0 1.0) ~completion:5.0;
  Breakdown.record b (mk ~sla:cheap 2 0.0 1.0) ~completion:15.0;
  Breakdown.record b (mk ~sla:rich 3 0.0 1.0) ~completion:2.0;
  check_int "two classes" 2 (List.length (Breakdown.classes b));
  (match Breakdown.find b "cheap" with
  | Some c ->
    check_int "two cheap measured" 2 (Stats.count c.Breakdown.loss);
    check_float "one missed" 0.5 (Stats.mean c.Breakdown.loss);
    check_int "one late" 1 c.Breakdown.late
  | None -> Alcotest.fail "cheap class missing");
  (match Breakdown.find b "rich" with
  | Some c ->
    check_int "one rich measured (warmup skipped)" 1 (Stats.count c.Breakdown.loss);
    check_float "rich on time" 5.0 (Stats.mean c.Breakdown.profit)
  | None -> Alcotest.fail "rich class missing");
  (* One class over a whole overloaded SLA-B run: its means are the
     run's own, bit for bit. *)
  let queries =
    Trace.generate
      (Trace.config ~kind:Workloads.Pareto ~profile:Workloads.Sla_b ~load:1.2
         ~servers:1 ~n_queries:600 ~seed:5 ())
  in
  let one = Breakdown.create ~classify:(fun _ -> "all") ~warmup_id:100 in
  let metrics = Metrics.create ~warmup_id:100 () in
  Sim.run ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
    ~metrics ~on_complete:(Breakdown.record one) ();
  let check_bits name a b =
    Alcotest.(check string) name (Printf.sprintf "%h" a) (Printf.sprintf "%h" b)
  in
  match Breakdown.find one "all" with
  | Some c ->
    check_bits "loss mean = Metrics.avg_loss" (Metrics.avg_loss metrics)
      (Stats.mean c.Breakdown.loss);
    check_bits "profit mean = Metrics.avg_profit" (Metrics.avg_profit metrics)
      (Stats.mean c.Breakdown.profit)
  | None -> Alcotest.fail "the one class is missing"

let test_on_complete_hook () =
  let seen = ref [] in
  let metrics = Metrics.create ~warmup_id:0 () in
  let queries = [| mk 0 0.0 2.0; mk 1 0.5 1.0 |] in
  Sim.run
    ~on_complete:(fun q ~completion -> seen := (q.Query.id, completion) :: !seen)
    ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
    ~metrics ();
  Alcotest.(check (list (pair int (float 1e-9))))
    "completions observed in order" [ (0, 2.0); (1, 3.0) ] (List.rev !seen)

let test_fcfs_completions () =
  (* Arrivals 0,1,2 with sizes 5,3,1: FCFS completes at 5,8,9.
     Deadlines (bound 10): 10,11,12 -> all on time, zero loss;
     responses 5,7,7 -> avg 19/3. *)
  let queries = [| mk 0 0.0 5.0; mk 1 1.0 3.0; mk 2 2.0 1.0 |] in
  let m = run_collect queries in
  check_int "all completed" 3 (Metrics.completed_count m);
  check_float "no loss" 0.0 (Metrics.avg_loss m);
  check_float "avg response" (19.0 /. 3.0) (Metrics.avg_response m)

let test_sjf_reorders () =
  (* Same queries under SJF: at t=5 buffer is {q1(3), q2(1)} -> run q2
     first. Completions 5,9,6; responses 5,8,4 -> avg 17/3. *)
  let queries = [| mk 0 0.0 5.0; mk 1 1.0 3.0; mk 2 2.0 1.0 |] in
  let m = run_collect ~pick:sjf_pick queries in
  check_float "avg response" (17.0 /. 3.0) (Metrics.avg_response m)

let test_deadline_miss_counted () =
  (* One query with a tight deadline misses it. *)
  let tight = Sla.one_zero ~bound:2.0 in
  let queries = [| mk 0 0.0 5.0; Query.make ~id:1 ~arrival:0.0 ~size:1.0 ~sla:tight () |] in
  let m = run_collect queries in
  (* q1 completes at 6, deadline 2 -> loss 1. *)
  check_float "avg loss 0.5" 0.5 (Metrics.avg_loss m);
  check_int "one late" 1 (Metrics.late_count m)

let test_actual_vs_estimated_times () =
  (* The server is busy for the actual size, not the estimate: q0 has
     est 1 but actually runs 10; q1 (size 1, deadline 10, arrival 0)
     completes at 11 and misses. *)
  let queries = [| mk ~est:1.0 0 0.0 10.0; mk 1 0.0 1.0 |] in
  let m = run_collect queries in
  check_float "q1 misses because of q0's real length" 0.5 (Metrics.avg_loss m)

let test_idle_period_respected () =
  (* Server idles between query 0 (0..1) and query 1 (arrives at 50). *)
  let queries = [| mk 0 0.0 1.0; mk 1 50.0 2.0 |] in
  let m = run_collect queries in
  (* Responses: 1 and 2. *)
  check_float "responses" 1.5 (Metrics.avg_response m)

let test_rejection_path () =
  let dispatch _sim q =
    if q.Query.id = 1 then { Sim.target = None; est_delta = None }
    else { Sim.target = Some 0; est_delta = None }
  in
  let queries = [| mk 0 0.0 1.0; mk 1 0.5 1.0; mk 2 1.0 1.0 |] in
  let m = run_collect ~dispatch queries in
  check_int "two completed" 2 (Metrics.completed_count m);
  check_int "one rejected" 1 (Metrics.rejected_count m)

let test_multi_server_parallelism () =
  (* Two servers, two simultaneous long queries: both finish at 10. *)
  let rr = ref (-1) in
  let dispatch _sim _q =
    rr := (!rr + 1) mod 2;
    { Sim.target = Some !rr; est_delta = None }
  in
  let queries = [| mk 0 0.0 10.0; mk 1 0.0 10.0 |] in
  let m = run_collect ~n_servers:2 ~dispatch queries in
  check_float "both at response 10" 10.0 (Metrics.avg_response m);
  check_float "both on time" 0.0 (Metrics.avg_loss m)

let test_invalid_dispatcher_target () =
  let dispatch _sim _q = { Sim.target = Some 7; est_delta = None } in
  let queries = [| mk 0 0.0 1.0 |] in
  check_bool "raises" true
    (match run_collect ~dispatch queries with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_invalid_scheduler_index () =
  let bad_pick ~now:_ _buffer = 99 in
  let queries = [| mk 0 0.0 5.0; mk 1 1.0 1.0 |] in
  check_bool "raises" true
    (match run_collect ~pick:bad_pick queries with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_on_dispatch_observer () =
  let seen = ref [] in
  let metrics = Metrics.create ~warmup_id:0 () in
  let queries = [| mk 0 0.0 1.0; mk 1 0.5 1.0 |] in
  Sim.run
    ~on_dispatch:(fun ~now q _d -> seen := (now, q.Query.id) :: !seen)
    ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
    ~metrics ();
  check_int "observer fired per arrival" 2 (List.length !seen);
  check_bool "at arrival times" true
    (List.mem (0.0, 0) !seen && List.mem (0.5, 1) !seen)

let test_est_work_left_exposed () =
  (* Probe server state from within the dispatcher. *)
  let observed = ref [] in
  let dispatch sim _q =
    let s = Sim.server sim 0 in
    observed := Sim.est_work_left sim s :: !observed;
    { Sim.target = Some 0; est_delta = None }
  in
  let queries = [| mk 0 0.0 4.0; mk 1 1.0 2.0; mk 2 2.0 2.0 |] in
  ignore (run_collect ~dispatch queries);
  (* At t=0: idle -> 0. At t=1: q0 has 3 left. At t=2: q0 has 2 left +
     q1 buffered (2) = 4. *)
  Alcotest.(check (list (float 1e-9))) "work left trace" [ 0.0; 3.0; 4.0 ]
    (List.rev !observed)

let test_drop_policy () =
  (* q1 (tight deadline, $10 penalty SLA) is hopeless by the time the
     server frees up: with the drop policy it is abandoned, letting q2
     finish earlier. *)
  let penalized = Sla.make ~levels:[ { bound = 2.0; gain = 1.0 } ] ~penalty:10.0 in
  let queries =
    [|
      mk 0 0.0 10.0;
      Query.make ~id:1 ~arrival:0.0 ~size:5.0 ~sla:penalized ();
      mk 2 0.5 3.0;
    |]
  in
  let run drop =
    let m = Metrics.create ~warmup_id:0 () in
    Sim.run
      ?drop_policy:(if drop then Some Sim.drop_past_last_deadline else None)
      ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
      ~metrics:m ();
    m
  in
  let kept = run false and dropped = run true in
  check_int "nothing dropped by default" 0 (Metrics.dropped_count kept);
  check_int "one dropped" 1 (Metrics.dropped_count dropped);
  check_int "two executed" 2 (Metrics.completed_count dropped);
  (* Keeping: q1 completes at 15 (profit -10), q2 at 18 (response 17.5,
     miss). Dropping: q1 pays -10 anyway but q2 completes at 13
     (response 12.5 > 10, still a miss here) — profits tie on q2 but
     the drop run must never be worse. *)
  check_bool "drop not worse" true
    (Metrics.total_profit dropped >= Metrics.total_profit kept -. 1e-9)

let test_drop_policy_frees_capacity () =
  (* Same, but q2's deadline is reachable only if q1 is dropped. *)
  let penalized = Sla.make ~levels:[ { bound = 2.0; gain = 1.0 } ] ~penalty:10.0 in
  let roomy = Sla.one_zero ~bound:14.0 in
  let queries =
    [|
      mk 0 0.0 10.0;
      Query.make ~id:1 ~arrival:0.0 ~size:5.0 ~sla:penalized ();
      Query.make ~id:2 ~arrival:0.5 ~size:3.0 ~sla:roomy ();
    |]
  in
  let run drop =
    let m = Metrics.create ~warmup_id:0 () in
    Sim.run
      ?drop_policy:(if drop then Some Sim.drop_past_last_deadline else None)
      ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
      ~metrics:m ();
    m
  in
  (* Kept: q2 completes at 18, response 17.5 > 14 -> 0.
     Dropped: q2 completes at 13, response 12.5 <= 14 -> 1. *)
  check_float "kept profit" (1.0 -. 10.0 +. 0.0) (Metrics.total_profit (run false));
  check_float "dropped profit" (1.0 -. 10.0 +. 1.0) (Metrics.total_profit (run true))

let test_drop_backlog_accounting () =
  (* Regression: a firing drop policy must leave [est_backlog] equal
     to the sum of the est_sizes still buffered — checked from inside
     the dispatcher on every later arrival. *)
  let hopeless = Sla.make ~levels:[ { bound = 1.0; gain = 1.0 } ] ~penalty:2.0 in
  let queries =
    [|
      mk 0 0.0 10.0;
      Query.make ~id:1 ~arrival:0.1 ~size:3.0 ~sla:hopeless ();
      Query.make ~id:2 ~arrival:0.2 ~size:4.0 ~sla:hopeless ();
      mk 3 0.3 2.0;
      mk 4 11.0 1.0;
      mk 5 12.5 1.0;
    |]
  in
  let checks = ref 0 in
  let dispatch sim _q =
    let s = Sim.server sim 0 in
    let sum =
      Array.fold_left
        (fun acc q -> acc +. q.Query.est_size)
        0.0 (Sim.buffer_array s)
    in
    check_float "est_backlog = sum of buffered est_size" sum s.Sim.est_backlog;
    incr checks;
    { Sim.target = Some 0; est_delta = None }
  in
  let m = Metrics.create ~warmup_id:0 () in
  Sim.run ~drop_policy:Sim.drop_past_last_deadline ~queries ~n_servers:1
    ~pick_next:fcfs_pick ~dispatch ~metrics:m ();
  (* q1 and q2 are hopeless once q0 monopolizes the server to t=10. *)
  check_int "both hopeless queries dropped" 2 (Metrics.dropped_count m);
  check_int "the rest executed" 4 (Metrics.completed_count m);
  check_int "invariant checked on every arrival" 6 !checks

let test_drop_penalty_in_metrics () =
  (* Regression: dropped queries still pay their SLA penalty. The
     run's total profit must equal the sum of [profit_at] over actual
     completions plus [-penalty] per dropped query. *)
  let hopeless = Sla.make ~levels:[ { bound = 1.0; gain = 1.0 } ] ~penalty:2.5 in
  let queries =
    [|
      mk 0 0.0 10.0;
      Query.make ~id:1 ~arrival:0.1 ~size:3.0 ~sla:hopeless ();
      Query.make ~id:2 ~arrival:0.2 ~size:4.0 ~sla:hopeless ();
      mk 3 0.3 2.0;
    |]
  in
  let expected = ref 0.0 in
  let m = Metrics.create ~warmup_id:0 () in
  Sim.run ~drop_policy:Sim.drop_past_last_deadline
    ~on_complete:(fun q ~completion ->
      expected := !expected +. Query.profit_at q ~completion)
    ~on_server_event:(fun ~sid:_ ~now:_ -> function
      | Sim.Dropped q -> expected := !expected -. Sla.penalty q.Query.sla
      | _ -> ())
    ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
    ~metrics:m ();
  check_int "two dropped" 2 (Metrics.dropped_count m);
  check_float "penalties flow into total profit" !expected
    (Metrics.total_profit m);
  (* And concretely: q0 on time (+1), q3 late (0), two drops (-5). *)
  check_float "hand-computed total" (1.0 -. 5.0) (Metrics.total_profit m)

let test_heterogeneous_speeds () =
  (* Same query on a 2x server finishes in half the time. *)
  let rr = ref (-1) in
  let dispatch _sim _q =
    rr := (!rr + 1) mod 2;
    { Sim.target = Some !rr; est_delta = None }
  in
  let queries = [| mk 0 0.0 10.0; mk 1 0.0 10.0 |] in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~speeds:[| 2.0; 0.5 |] ~queries ~n_servers:2 ~pick_next:fcfs_pick
    ~dispatch ~metrics ();
  (* Responses: 10/2 = 5 on the fast server, 10/0.5 = 20 on the slow
     one -> mean 12.5. *)
  check_float "speed-scaled responses" 12.5 (Metrics.avg_response metrics)

let test_heterogeneous_work_left () =
  let observed = ref [] in
  let dispatch sim _q =
    observed := Sim.est_work_left sim (Sim.server sim 0) :: !observed;
    { Sim.target = Some 0; est_delta = None }
  in
  let queries = [| mk 0 0.0 8.0; mk 1 1.0 4.0; mk 2 2.0 1.0 |] in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~speeds:[| 2.0 |] ~queries ~n_servers:1 ~pick_next:fcfs_pick ~dispatch
    ~metrics ();
  (* Speed 2: q0 takes 4 wall-clock units. At t=1 it has 3 left; at
     t=2 it has 2 left plus q1's 4/2 = 2 buffered. *)
  Alcotest.(check (list (float 1e-9)))
    "speed-aware backlog" [ 0.0; 3.0; 4.0 ] (List.rev !observed)

let test_invalid_speeds () =
  let queries = [| mk 0 0.0 1.0 |] in
  let metrics = Metrics.create ~warmup_id:0 () in
  let run speeds =
    Sim.run ~speeds ~queries ~n_servers:1 ~pick_next:fcfs_pick
      ~dispatch:single_dispatch ~metrics ()
  in
  check_bool "wrong length" true
    (match run [| 1.0; 2.0 |] with exception Invalid_argument _ -> true | _ -> false);
  check_bool "non-positive" true
    (match run [| 0.0 |] with exception Invalid_argument _ -> true | _ -> false)

(* Negative paths: the pool-management and dispatch guards must raise
   Invalid_argument instead of corrupting the run. Mid-run Sim.t state
   is reached through the dispatcher closure (it receives the sim). *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* Run one query; at its arrival the dispatcher evaluates [probe sim]
   and reports whether it raised. *)
let probe_raises probe =
  let result = ref None in
  let dispatch sim _q =
    result := Some (raises_invalid (fun () -> probe sim));
    { Sim.target = Some 0; est_delta = None }
  in
  ignore (run_collect ~dispatch [| mk 0 0.0 1.0 |]);
  match !result with Some b -> b | None -> Alcotest.fail "probe never ran"

let test_add_server_invalid_speed () =
  check_bool "zero speed raises" true
    (probe_raises (fun sim -> ignore (Sim.add_server ~speed:0.0 sim)));
  check_bool "negative speed raises" true
    (probe_raises (fun sim -> ignore (Sim.add_server ~speed:(-2.0) sim)))

let test_add_server_invalid_boot_delay () =
  check_bool "negative boot delay raises" true
    (probe_raises (fun sim -> ignore (Sim.add_server ~boot_delay:(-0.1) sim)))

let test_retire_unknown_server () =
  check_bool "out-of-range id raises" true
    (probe_raises (fun sim -> Sim.retire_server sim 42));
  check_bool "negative id raises" true
    (probe_raises (fun sim -> Sim.retire_server sim (-1)))

let test_retire_would_empty_pool () =
  check_bool "draining the last accepting server raises" true
    (probe_raises (fun sim -> Sim.retire_server sim 0))

(* Satellite guarantee (sim.mli, retire_server): a redistributed query
   the dispatcher declines is recorded as a REJECTION — never silently
   lost. Every arrived query must show up in exactly one metric. *)
let test_retire_redistribute_reject_is_rejection () =
  let metrics = Metrics.create ~warmup_id:0 () in
  let retired = ref false in
  let dispatch sim (q : Query.t) =
    if q.Query.arrival >= 3.0 && not !retired then begin
      retired := true;
      (* Server 0 is mid-query with two buffered victims. *)
      Sim.retire_server sim 0
    end;
    if !retired && q.Query.id <= 2 then
      (* Decline the redistributed buffer of server 0. *)
      { Sim.target = None; est_delta = None }
    else { Sim.target = Some (if !retired then 1 else 0); est_delta = None }
  in
  let queries =
    [| mk 0 0.0 10.0; mk 1 1.0 1.0; mk 2 2.0 1.0; mk 3 3.0 1.0 |]
  in
  Sim.run ~queries ~n_servers:2 ~pick_next:fcfs_pick ~dispatch ~metrics ();
  check_int "q0 and q3 complete" 2 (Metrics.completed_count metrics);
  check_int "the declined redistribution is two rejections" 2
    (Metrics.rejected_count metrics);
  check_int "nothing lost" 0 (Metrics.lost_count metrics)

let test_dispatch_to_non_accepting () =
  (* Target a freshly added server that is still booting. *)
  let first = ref true in
  let dispatch sim _q =
    if !first then begin
      first := false;
      ignore (Sim.add_server ~boot_delay:1_000.0 sim)
    end;
    { Sim.target = Some 1; est_delta = None }
  in
  check_bool "dispatching to a booting server raises" true
    (raises_invalid (fun () ->
         ignore (run_collect ~dispatch [| mk 0 0.0 1.0 |])))

let test_negative_scheduler_index () =
  let bad_pick ~now:_ _buffer = -1 in
  let queries = [| mk 0 0.0 5.0; mk 1 1.0 1.0 |] in
  check_bool "negative index raises" true
    (raises_invalid (fun () -> ignore (run_collect ~pick:bad_pick queries)))

(* A one-server session holding one query of size 10: its completion
   is due at 10. *)
let one_query_session () =
  let sess =
    Sim.session ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
      ~metrics:(Metrics.create ~warmup_id:0 ())
      ()
  in
  Sim.inject sess (mk 0 0.0 10.0);
  sess

let check_next_event = Alcotest.(check (option (float 0.0)))

(* A crash withdraws the running query's completion: nothing is left
   to wake for. *)
let test_next_event_after_crash () =
  let sess = one_query_session () in
  check_next_event "completion due" (Some 10.0) (Sim.next_event_time sess);
  ignore (Sim.crash_server (Sim.sim sess) 0 : Query.t list);
  check_next_event "nothing pending" None (Sim.next_event_time sess);
  Sim.drain sess;
  check_float "clock stays at the crash" 0.0 (Sim.now (Sim.sim sess))

(* Halving the rate moves the completion to 20, and only that time is
   reported. *)
let test_next_event_after_degrade () =
  let sess = one_query_session () in
  Sim.degrade_server (Sim.sim sess) 0 ~factor:0.5;
  check_next_event "rescheduled completion" (Some 20.0)
    (Sim.next_event_time sess);
  Sim.drain sess;
  check_float "completes at the new time" 20.0 (Sim.now (Sim.sim sess))

(* An infinite rate would finish the running query at once: both
   entry points refuse it and leave the completion where it was. *)
let test_infinite_speed_refused () =
  let sess = one_query_session () in
  check_bool "set_speed infinity" true
    (raises_invalid (fun () -> Sim.set_speed (Sim.sim sess) 0 ~speed:infinity));
  check_next_event "completion unmoved" (Some 10.0) (Sim.next_event_time sess)

let test_infinite_degrade_refused () =
  let sess = one_query_session () in
  check_bool "degrade_server by infinity" true
    (raises_invalid (fun () ->
         Sim.degrade_server (Sim.sim sess) 0 ~factor:infinity));
  check_next_event "completion unmoved" (Some 10.0) (Sim.next_event_time sess)

(* A finite positive factor small enough that the running query's
   remaining work at the new rate overflows: the completion would be
   infinite, and a restore could not bring it back. *)
let test_overflowing_degrade_refused () =
  let sess = one_query_session () in
  check_bool "degrade_server by 1e-320" true
    (raises_invalid (fun () ->
         Sim.degrade_server (Sim.sim sess) 0 ~factor:1e-320));
  check_float "speed unchanged" 1.0 (Sim.server (Sim.sim sess) 0).Sim.speed;
  check_next_event "completion unmoved" (Some 10.0) (Sim.next_event_time sess)

(* On an idle server the same factor is accepted (nothing runs to
   overflow), but the next start would complete at infinity and leave
   the clock there after a drain: the start is refused instead, and the
   server stays idle with nothing pending. *)
let test_overflowing_start_refused () =
  let sess =
    Sim.session ~n_servers:1 ~pick_next:fcfs_pick ~dispatch:single_dispatch
      ~metrics:(Metrics.create ~warmup_id:0 ())
      ()
  in
  Sim.degrade_server (Sim.sim sess) 0 ~factor:1e-320;
  check_bool "start at speed 1e-320 refused" true
    (raises_invalid (fun () -> Sim.inject sess (mk 0 0.0 10.0)));
  check_bool "nothing running" true
    ((Sim.server (Sim.sim sess) 0).Sim.running = None);
  check_next_event "nothing pending" None (Sim.next_event_time sess);
  Sim.drain sess;
  check_float "clock stays finite" 0.0 (Sim.now (Sim.sim sess))

let test_simulation_drains_large_trace () =
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_a ~load:0.9
      ~servers:1 ~n_queries:5_000 ~seed:99 ()
  in
  let queries = Trace.generate cfg in
  let m = run_collect queries in
  check_int "everything completes" 5_000 (Metrics.completed_count m);
  check_int "nothing rejected" 0 (Metrics.rejected_count m)

let test_utilization_matches_load () =
  (* An M/M/1 queue at rho = 0.2 with deadline 2*mu misses with
     probability exp(-(1 - rho) * 2) ~ 0.202; the measured SLA-A loss
     must sit near that analytic value. This pins down both the load
     calibration and the FCFS response-time distribution. *)
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_a ~load:0.2
      ~servers:1 ~n_queries:8_000 ~seed:7 ()
  in
  let queries = Trace.generate cfg in
  let m = run_collect queries in
  let analytic = exp (-.(1.0 -. 0.2) *. 2.0) in
  check_bool
    (Printf.sprintf "loss %.3f near M/M/1 prediction %.3f" (Metrics.avg_loss m)
       analytic)
    true
    (Float.abs (Metrics.avg_loss m -. analytic) < 0.03)

let prop_work_conservation =
  (* Whatever the (valid) scheduler decision, every query completes
     exactly once and total measured profit stays within the ideal
     bounds. *)
  QCheck.Test.make ~name:"every query completes exactly once" ~count:50
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let cfg =
        Trace.config ~kind:Workloads.Ssbm_wl ~profile:Workloads.Sla_b ~load:0.9
          ~servers:2 ~n_queries:300 ~seed ()
      in
      let queries = Trace.generate cfg in
      let rr = ref 0 in
      let dispatch _sim _q =
        rr := (!rr + 1) mod 2;
        { Sim.target = Some !rr; est_delta = None }
      in
      let m = run_collect ~n_servers:2 ~dispatch queries in
      Metrics.completed_count m = 300)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim"
    [
      ( "metrics",
        [
          Alcotest.test_case "warmup window" `Quick test_metrics_warmup;
          Alcotest.test_case "rejection" `Quick test_metrics_rejection;
          Alcotest.test_case "response time" `Quick test_metrics_response;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "breakdown classes" `Quick test_breakdown_classes;
          Alcotest.test_case "on_complete hook" `Quick test_on_complete_hook;
        ] );
      ( "single-server",
        [
          Alcotest.test_case "FCFS completions" `Quick test_fcfs_completions;
          Alcotest.test_case "SJF reorders" `Quick test_sjf_reorders;
          Alcotest.test_case "deadline miss counted" `Quick test_deadline_miss_counted;
          Alcotest.test_case "actual vs estimated" `Quick test_actual_vs_estimated_times;
          Alcotest.test_case "idle period" `Quick test_idle_period_respected;
          Alcotest.test_case "rejection path" `Quick test_rejection_path;
        ] );
      ( "multi-server",
        [
          Alcotest.test_case "parallelism" `Quick test_multi_server_parallelism;
          Alcotest.test_case "invalid dispatcher target" `Quick
            test_invalid_dispatcher_target;
          Alcotest.test_case "invalid scheduler index" `Quick
            test_invalid_scheduler_index;
          Alcotest.test_case "on_dispatch observer" `Quick test_on_dispatch_observer;
          Alcotest.test_case "est_work_left" `Quick test_est_work_left_exposed;
          Alcotest.test_case "drop policy" `Quick test_drop_policy;
          Alcotest.test_case "drop frees capacity" `Quick
            test_drop_policy_frees_capacity;
          Alcotest.test_case "drop backlog accounting" `Quick
            test_drop_backlog_accounting;
          Alcotest.test_case "drop penalty in metrics" `Quick
            test_drop_penalty_in_metrics;
          Alcotest.test_case "heterogeneous speeds" `Quick test_heterogeneous_speeds;
          Alcotest.test_case "heterogeneous work left" `Quick
            test_heterogeneous_work_left;
          Alcotest.test_case "invalid speeds" `Quick test_invalid_speeds;
        ] );
      ( "negative paths",
        [
          Alcotest.test_case "add_server invalid speed" `Quick
            test_add_server_invalid_speed;
          Alcotest.test_case "add_server invalid boot delay" `Quick
            test_add_server_invalid_boot_delay;
          Alcotest.test_case "retire unknown server" `Quick
            test_retire_unknown_server;
          Alcotest.test_case "retire would empty pool" `Quick
            test_retire_would_empty_pool;
          Alcotest.test_case "redistribute-reject is a rejection" `Quick
            test_retire_redistribute_reject_is_rejection;
          Alcotest.test_case "dispatch to non-accepting server" `Quick
            test_dispatch_to_non_accepting;
          Alcotest.test_case "negative scheduler index" `Quick
            test_negative_scheduler_index;
          Alcotest.test_case "infinite speed refused" `Quick
            test_infinite_speed_refused;
          Alcotest.test_case "infinite degrade factor refused" `Quick
            test_infinite_degrade_refused;
          Alcotest.test_case "overflowing degrade factor refused" `Quick
            test_overflowing_degrade_refused;
          Alcotest.test_case "overflowing start refused" `Quick
            test_overflowing_start_refused;
        ] );
      ( "session",
        [
          Alcotest.test_case "next event after crash" `Quick
            test_next_event_after_crash;
          Alcotest.test_case "next event after degrade" `Quick
            test_next_event_after_degrade;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "drains large trace" `Slow test_simulation_drains_large_trace;
          Alcotest.test_case "M/M/1 miss probability" `Slow test_utilization_matches_load;
          qtest prop_work_conservation;
        ] );
    ]
