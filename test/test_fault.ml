(* Tests for lib/fault: crash/degrade/restore semantics on
   hand-computed schedules, the retry policy and its SLA clock, plan
   construction and parsing, determinism, and a QCheck chaos fuzz that
   checks query conservation under arbitrary fault storms. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(sla = Sla.one_zero ~bound:1e9) ?arrival id size =
  let arrival = match arrival with Some a -> a | None -> 0.0 in
  Query.make ~id ~arrival ~size ~sla ()

let fcfs_pick ~now:_ _buffer = 0

(* Run [queries] on [n_servers] under [plan], dispatching with a fixed
   target function (default: LWL-free "first dispatchable"). *)
let run_fault ?(retry = Fault.default_retry) ?(n_servers = 2) ?dispatch ~plan
    queries =
  let injector = Fault.create ~retry ~plan () in
  let metrics = Metrics.create ~warmup_id:0 () in
  let dispatch =
    match dispatch with
    | Some d -> d
    | None ->
      fun sim (_q : Query.t) ->
        let target = ref None in
        for sid = Sim.n_servers sim - 1 downto 0 do
          if Sim.dispatchable sim sid then target := Some sid
        done;
        { Sim.target = !target; est_delta = None }
  in
  Sim.run
    ~timers:(Fault.timers injector)
    ~on_server_event:(Fault.on_server_event injector)
    ~queries ~n_servers ~pick_next:fcfs_pick ~dispatch ~metrics ();
  Fault.finalize injector metrics;
  (metrics, Fault.stats injector)

(* ------------------------------------------------------------------ *)
(* Hand-computed schedules *)

(* Server 0 runs q0 (10 ms) with q1 buffered behind it; the crash at
   t=3 orphans both. They re-enter the dispatcher and land on the idle
   server 1: q0 reruns 3..13, q1 runs 13..18. *)
let crash_case ~retry =
  let queries = [| mk 0 10.0; mk 1 5.0 ~arrival:1.0 |] in
  let dispatch sim (q : Query.t) =
    let target = if q.Query.retries > 0 then 1 else 0 in
    let target = if Sim.dispatchable sim target then target else 1 in
    { Sim.target = Some target; est_delta = None }
  in
  run_fault ~retry ~dispatch
    ~plan:(Fault.scripted [ Fault.Crash { at = 3.0; sid = 0 } ])
    queries

let test_crash_reruns_orphans () =
  let m, s = crash_case ~retry:Fault.default_retry in
  check_int "crashes" 1 s.Fault.crashes;
  check_int "both orphans retried" 2 s.Fault.retries;
  check_int "nothing lost" 0 s.Fault.lost;
  check_int "both complete" 2 (Metrics.completed_count m);
  check_int "lost metric agrees" 0 (Metrics.lost_count m);
  (* Responses: q0 completes at 13 (arrived 0), q1 at 18 (arrived 1). *)
  check_float "rerun-from-scratch completions" ((13.0 +. 17.0) /. 2.0)
    (Metrics.avg_response m)

let test_retry_keeps_sla_clock () =
  (* Same schedule, deadline 15: q0's retry completes at t=13 —
     on time only against its ORIGINAL t=0 arrival (response 13); q1
     (response 17) is late. A retry that (wrongly) reset its clock
     would make both look on time. *)
  let sla = Sla.one_zero ~bound:15.0 in
  let queries =
    [| mk 0 10.0 ~sla; mk 1 5.0 ~arrival:1.0 ~sla |]
  in
  let dispatch sim (q : Query.t) =
    let target = if q.Query.retries > 0 then 1 else 0 in
    let target = if Sim.dispatchable sim target then target else 1 in
    { Sim.target = Some target; est_delta = None }
  in
  let m, _ =
    run_fault ~dispatch
      ~plan:(Fault.scripted [ Fault.Crash { at = 3.0; sid = 0 } ])
      queries
  in
  check_int "exactly the slow retry is late" 1 (Metrics.late_count m);
  check_float "profit counts one on-time query" 1.0 (Metrics.total_profit m)

let test_retry_cap_loses_orphans () =
  let m, s = crash_case ~retry:{ Fault.max_retries = 0; requeue = true } in
  check_int "no retries under a zero cap" 0 s.Fault.retries;
  check_int "both orphans lost" 2 s.Fault.lost;
  check_int "metrics account the loss" 2 (Metrics.lost_count m);
  check_int "nothing completes" 0 (Metrics.completed_count m)

let test_no_requeue_loses_orphans () =
  let m, s = crash_case ~retry:{ Fault.max_retries = 3; requeue = false } in
  check_int "no retries without requeue" 0 s.Fault.retries;
  check_int "both orphans lost" 2 s.Fault.lost;
  check_int "metrics account the loss" 2 (Metrics.lost_count m)

let test_degrade_stretches_running_query () =
  (* One server, q0 of 10 ms. Brownout to half speed at t=2: 2 ms done,
     8 ms left at half rate -> completes at 2 + 16 = 18. *)
  let m, s =
    run_fault ~n_servers:1
      ~dispatch:(fun _ _ -> { Sim.target = Some 0; est_delta = None })
      ~plan:(Fault.scripted [ Fault.Degrade { at = 2.0; sid = 0; factor = 0.5 } ])
      [| mk 0 10.0 |]
  in
  check_int "degrades" 1 s.Fault.degrades;
  check_float "completion stretched" 18.0 (Metrics.avg_response m)

let test_restore_resumes_nominal_rate () =
  (* Brownout 2..6 (4 ms at half rate = 2 ms of work), then repaired:
     10 - 2 - 2 = 6 ms left at nominal -> completes at 12. *)
  let m, s =
    run_fault ~n_servers:1
      ~dispatch:(fun _ _ -> { Sim.target = Some 0; est_delta = None })
      ~plan:
        (Fault.scripted
           [
             Fault.Degrade { at = 2.0; sid = 0; factor = 0.5 };
             Fault.Restore { at = 6.0; sid = 0 };
           ])
      [| mk 0 10.0 |]
  in
  check_int "restored" 1 s.Fault.restores;
  check_float "nominal rate resumes" 12.0 (Metrics.avg_response m)

let test_restore_rejoins_crashed_server () =
  (* Crash server 0 at t=1, restore it at t=2; a query arriving at t=3
     can be dispatched to it again. *)
  let sent_to_zero = ref false in
  let dispatch sim (q : Query.t) =
    if q.Query.id = 1 && Sim.dispatchable sim 0 then begin
      sent_to_zero := true;
      { Sim.target = Some 0; est_delta = None }
    end
    else { Sim.target = Some 1; est_delta = None }
  in
  let m, s =
    run_fault ~dispatch
      ~plan:
        (Fault.scripted
           [ Fault.Crash { at = 1.0; sid = 0 }; Fault.Restore { at = 2.0; sid = 0 } ])
      [| mk 0 0.5; mk 1 1.0 ~arrival:3.0 |]
  in
  check_int "one crash, one restore" 2 (s.Fault.crashes + s.Fault.restores);
  check_bool "restored server takes work again" true !sent_to_zero;
  check_int "everything completes" 2 (Metrics.completed_count m)

let test_crash_never_strands_workload () =
  (* A plan that tries to kill both servers: the second crash would
     leave nothing dispatchable and must be skipped. *)
  let m, s =
    run_fault
      ~plan:
        (Fault.scripted
           [ Fault.Crash { at = 1.0; sid = 0 }; Fault.Crash { at = 1.5; sid = 1 } ])
      [| mk 0 10.0; mk 1 5.0 ~arrival:0.5 |]
  in
  check_int "one crash lands" 1 s.Fault.crashes;
  check_int "the pool-emptying crash is skipped" 1 s.Fault.skipped;
  check_int "workload still drains" 2
    (Metrics.completed_count m + Metrics.lost_count m)

let test_finalize_twice_raises () =
  let injector = Fault.create ~plan:[] () in
  let metrics = Metrics.create ~warmup_id:0 () in
  Fault.finalize injector metrics;
  check_bool "second finalize raises" true
    (match Fault.finalize injector metrics with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Plans: construction, parsing, determinism *)

let test_scripted_sorts_and_validates () =
  let plan =
    Fault.scripted
      [ Fault.Restore { at = 5.0; sid = 0 }; Fault.Crash { at = 1.0; sid = 0 } ]
  in
  check_float "sorted by time" 1.0 (Fault.event_time (List.hd plan));
  let raises l =
    match Fault.scripted l with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "negative time rejected" true
    (raises [ Fault.Crash { at = -1.0; sid = 0 } ]);
  check_bool "negative sid rejected" true
    (raises [ Fault.Crash { at = 0.0; sid = -1 } ]);
  check_bool "non-positive factor rejected" true
    (raises [ Fault.Degrade { at = 0.0; sid = 0; factor = 0.0 } ])

let test_random_plan_deterministic () =
  let draw () =
    Fault.random_plan ~degrade_prob:0.4 ~seed:11 ~horizon:10_000.0 ~n_servers:4
      ~mttf:2_000.0 ~mttr:300.0 ()
  in
  check_bool "same seed, same plan" true (draw () = draw ());
  let other =
    Fault.random_plan ~degrade_prob:0.4 ~seed:12 ~horizon:10_000.0 ~n_servers:4
      ~mttf:2_000.0 ~mttr:300.0 ()
  in
  check_bool "different seed diverges" true (draw () <> other)

let test_random_plan_every_fault_repaired () =
  let plan =
    Fault.random_plan ~degrade_prob:0.5 ~seed:3 ~horizon:20_000.0 ~n_servers:6
      ~mttf:3_000.0 ~mttr:500.0 ()
  in
  check_bool "non-empty at this mttf" true (plan <> []);
  (* Walk each server's events in time order: faults and repairs must
     alternate, starting with a fault and ending with a Restore. *)
  for sid = 0 to 5 do
    let evs =
      List.filter
        (fun e ->
          match e with
          | Fault.Crash c -> c.sid = sid
          | Fault.Degrade d -> d.sid = sid
          | Fault.Restore r -> r.sid = sid)
        plan
    in
    let rec walk want_fault = function
      | [] -> true
      | Fault.Restore _ :: rest -> (not want_fault) && walk true rest
      | (Fault.Crash _ | Fault.Degrade _) :: rest -> want_fault && walk false rest
    in
    check_bool "faults and repairs alternate" true (walk true evs);
    match List.rev evs with
    | Fault.Restore _ :: _ | [] -> ()
    | _ -> Alcotest.fail "a fault was left permanent"
  done

let test_plan_of_spec () =
  let parse s = Fault.plan_of_spec s ~horizon:10_000.0 ~n_servers:4 in
  check_bool "none is empty" true (parse "none" = []);
  check_bool "empty string is empty" true (parse "" = []);
  check_bool "moderate preset draws" true (parse "moderate" <> []);
  check_bool "seeded preset is deterministic" true
    (parse "severe:5" = parse "severe:5");
  check_bool "model form draws" true (parse "mttf=2000,mttr=300,seed=1" <> []);
  (match parse "crash@5:1;degrade@10:2:0.25;restore@20:1" with
  | [ Fault.Crash { at = 5.0; sid = 1 }; Fault.Degrade d; Fault.Restore r ] ->
    check_float "factor parsed" 0.25 d.factor;
    check_float "restore time parsed" 20.0 r.at;
    check_int "restore sid parsed" 1 r.sid
  | _ -> Alcotest.fail "script parse shape");
  let raises s =
    match parse s with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "garbage rejected" true (raises "meteor-strike");
  check_bool "bad number rejected" true (raises "crash@x:0");
  check_bool "missing mttr rejected" true (raises "mttf=100")

(* A spec that is not finite where a number must be is refused with
   the rule it breaks, not accepted or refused under another name. *)
let check_refused_with rule spec =
  let contains s needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  match Fault.plan_of_spec spec ~horizon:10_000.0 ~n_servers:4 with
  | exception Invalid_argument msg ->
    if not (contains msg rule) then
      Alcotest.failf "%S refused as %S, not %S" spec msg rule
  | _ -> Alcotest.failf "%S accepted" spec

let test_infinite_factor_refused () =
  check_refused_with "factor must be finite" "degrade@5:0:inf"

(* A factor this small would stretch the running query's remaining
   work past every float: refused by the stated floor. *)
let test_tiny_factor_refused () =
  check_refused_with "factor must be finite and at least 1e-06"
    "degrade@5:0:1e-320"

let test_nan_time_refused () =
  check_refused_with "time must be finite" "crash@nan:0"

let test_nan_mttf_refused () =
  check_refused_with "mttf must be finite" "mttf=nan,mttr=1"

let steady_trace ~n_queries ~seed =
  Trace.generate
    (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:0.9
       ~servers:2 ~n_queries ~seed ())

let snapshot (m, (s : Fault.stats)) =
  ( Metrics.total_profit m,
    Metrics.completed_count m,
    Metrics.lost_count m,
    Metrics.late_count m,
    s.Fault.crashes,
    s.Fault.retries )

let test_same_plan_identical_metrics () =
  let queries = steady_trace ~n_queries:400 ~seed:21 in
  let go () =
    run_fault
      ~plan:(Fault.plan_of_spec "severe:9" ~horizon:4_000.0 ~n_servers:2)
      queries
  in
  check_bool "two runs of one plan agree exactly" true
    (snapshot (go ()) = snapshot (go ()))

let test_empty_plan_is_inert () =
  (* The `--faults none` path: an injector over the empty plan must
     reproduce the uninstrumented run bit for bit. *)
  let queries = steady_trace ~n_queries:400 ~seed:22 in
  let with_injector = snapshot (run_fault ~plan:[] queries) in
  let metrics = Metrics.create ~warmup_id:0 () in
  let dispatch sim (_q : Query.t) =
    let target = ref None in
    for sid = Sim.n_servers sim - 1 downto 0 do
      if Sim.dispatchable sim sid then target := Some sid
    done;
    { Sim.target = !target; est_delta = None }
  in
  Sim.run ~queries ~n_servers:2 ~pick_next:fcfs_pick ~dispatch ~metrics ();
  check_bool "hooks with no plan change nothing" true
    (with_injector
    = ( Metrics.total_profit metrics,
        Metrics.completed_count metrics,
        Metrics.lost_count metrics,
        Metrics.late_count metrics,
        0,
        0 ))

(* ------------------------------------------------------------------ *)
(* Chaos fuzz: conservation under arbitrary storms *)

(* Arbitrary fault storms over a real workload: every arrived query
   must end in exactly one of completed / lost (this harness neither
   rejects nor drops), the pool must keep its size, and the injector's
   crash accounting must agree with the metrics. *)
let prop_chaos_conservation =
  let gen =
    QCheck.Gen.(
      let* n_queries = int_range 10 120 in
      let* wl_seed = int_range 0 10_000 in
      let* n_servers = int_range 2 5 in
      let* plan_kind = int_range 0 2 in
      let* plan_seed = int_range 0 10_000 in
      let* max_retries = int_range 0 3 in
      let* requeue = bool in
      return (n_queries, wl_seed, n_servers, plan_kind, plan_seed, max_retries, requeue))
  in
  let arb =
    QCheck.make gen ~print:(fun (n, ws, s, pk, ps, mr, rq) ->
        Printf.sprintf
          "n=%d wl_seed=%d servers=%d plan_kind=%d plan_seed=%d max_retries=%d \
           requeue=%b"
          n ws s pk ps mr rq)
  in
  QCheck.Test.make ~name:"chaos: every query completed or lost exactly once"
    ~count:150 arb
    (fun (n_queries, wl_seed, n_servers, plan_kind, plan_seed, max_retries, requeue) ->
      let queries =
        Trace.generate
          (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:1.2
             ~servers:n_servers ~n_queries ~seed:wl_seed ())
      in
      let horizon =
        Array.fold_left (fun acc q -> Float.max acc q.Query.arrival) 1.0 queries
      in
      let plan =
        match plan_kind with
        | 0 -> []
        | 1 ->
          Fault.random_plan ~degrade_prob:0.3 ~seed:plan_seed ~horizon
            ~n_servers ~mttf:(horizon /. 2.0) ~mttr:(horizon /. 10.0) ()
        | _ ->
          (* A dense scripted storm: one event every ~tenth of the run,
             round-robin over the servers. *)
          Fault.scripted
            (List.init 12 (fun i ->
                 let at = horizon *. Float.of_int (i + 1) /. 13.0 in
                 let sid = i mod n_servers in
                 match i mod 3 with
                 | 0 -> Fault.Crash { at; sid }
                 | 1 -> Fault.Degrade { at; sid; factor = 0.25 }
                 | _ -> Fault.Restore { at; sid }))
      in
      let m, s =
        run_fault
          ~retry:{ Fault.max_retries; requeue }
          ~n_servers ~plan queries
      in
      let conserved =
        Metrics.completed_count m + Metrics.lost_count m = n_queries
      in
      let stats_agree =
        (* Timers only fire while workload events remain, so events
           scripted past the last completion never run — fired events
           are bounded by, not equal to, the plan length. *)
        s.Fault.lost = Metrics.lost_count m
        && s.Fault.crashes + s.Fault.degrades + s.Fault.restores + s.Fault.skipped
           <= List.length plan
        && List.length s.Fault.recoveries <= s.Fault.crashes
      in
      if not conserved then
        QCheck.Test.fail_reportf "lost queries: %d completed + %d lost <> %d"
          (Metrics.completed_count m) (Metrics.lost_count m) n_queries;
      if not stats_agree then QCheck.Test.fail_report "stats disagree";
      true)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fault"
    [
      ( "semantics",
        [
          Alcotest.test_case "crash reruns orphans" `Quick
            test_crash_reruns_orphans;
          Alcotest.test_case "retry keeps the SLA clock" `Quick
            test_retry_keeps_sla_clock;
          Alcotest.test_case "retry cap loses orphans" `Quick
            test_retry_cap_loses_orphans;
          Alcotest.test_case "no requeue loses orphans" `Quick
            test_no_requeue_loses_orphans;
          Alcotest.test_case "degrade stretches the running query" `Quick
            test_degrade_stretches_running_query;
          Alcotest.test_case "restore resumes nominal rate" `Quick
            test_restore_resumes_nominal_rate;
          Alcotest.test_case "restore rejoins a crashed server" `Quick
            test_restore_rejoins_crashed_server;
          Alcotest.test_case "crash never strands the workload" `Quick
            test_crash_never_strands_workload;
          Alcotest.test_case "finalize twice raises" `Quick
            test_finalize_twice_raises;
        ] );
      ( "plans",
        [
          Alcotest.test_case "scripted sorts and validates" `Quick
            test_scripted_sorts_and_validates;
          Alcotest.test_case "random plan deterministic" `Quick
            test_random_plan_deterministic;
          Alcotest.test_case "every random fault repaired" `Quick
            test_random_plan_every_fault_repaired;
          Alcotest.test_case "spec grammar" `Quick test_plan_of_spec;
          Alcotest.test_case "infinite degrade factor refused" `Quick
            test_infinite_factor_refused;
          Alcotest.test_case "tiny degrade factor refused" `Quick
            test_tiny_factor_refused;
          Alcotest.test_case "nan time refused as not finite" `Quick
            test_nan_time_refused;
          Alcotest.test_case "nan mttf refused as not finite" `Quick
            test_nan_mttf_refused;
          Alcotest.test_case "same plan, identical metrics" `Quick
            test_same_plan_identical_metrics;
          Alcotest.test_case "empty plan is inert" `Quick
            test_empty_plan_is_inert;
        ] );
      ("chaos", [ qtest prop_chaos_conservation ]);
    ]
