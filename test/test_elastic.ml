(* Tests for the elastic server pool: config validation, the removal
   probe, the drain protocol, pool bounds, the conservation invariant
   across scale events, and the autoscaling experiment's economics. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.0))

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let mk_config ?(interval = 200.0) ?(cost = 2.0) ?(boot = 0.0) ?(cooldown = 0.0)
    ?(min_servers = 1) ?(max_servers = 8) () =
  Elastic.config ~interval ~cost_per_interval:cost ~boot_delay:boot ~cooldown
    ~min_servers ~max_servers ()

(* The shared scenario: a square-wave workload whose bursts force
   scale-ups and whose quiet halves force drains. *)
let bursty_queries ?(n = 1_200) ?(seed = 424242) () =
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_b ~load:1.0
      ~servers:3 ~n_queries:n ~seed ()
  in
  let span = Float.of_int n *. 20.0 /. (1.1 *. 3.0) in
  Bursty.generate cfg
    (Bursty.square ~period:(span /. 4.0) ~duty:0.5 ~low:0.2 ~high:2.0)

let test_config_validation () =
  check_bool "zero interval" true
    (raises_invalid (fun () -> mk_config ~interval:0.0 ()));
  check_bool "negative cost" true
    (raises_invalid (fun () -> mk_config ~cost:(-1.0) ()));
  check_bool "min > max" true
    (raises_invalid (fun () -> mk_config ~min_servers:5 ~max_servers:2 ()));
  check_bool "min < 1" true
    (raises_invalid (fun () -> mk_config ~min_servers:0 ()));
  check_bool "negative boot delay" true
    (raises_invalid (fun () -> mk_config ~boot:(-1.0) ()))

(* ------------------------------------------------------------------ *)
(* Probes *)

let test_removal_probe () =
  (* Observed mid-run from the ticker: the probe is finite and
     non-negative on every accepting server, and the cheapest pick is
     among them. *)
  let queries = bursty_queries ~n:600 () in
  let checked = ref 0 in
  let ticker sim =
    for sid = 0 to Sim.n_servers sim - 1 do
      if Sim.dispatchable sim sid then begin
        let c = Elastic.removal_cost sim ~sid in
        check_bool "removal cost >= 0" true (c >= 0.0);
        check_bool "removal cost finite" true (Float.is_finite c);
        incr checked
      end
    done;
    match Elastic.cheapest_removal sim with
    | Some (sid, c) ->
      check_bool "cheapest is accepting" true (Sim.dispatchable sim sid);
      check_bool "cheapest cost >= 0" true (c >= 0.0)
    | None -> check_bool "none only when <2 accept" true (Sim.dispatchable_count sim < 2)
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~ticker:(100.0, ticker) ~queries ~n_servers:3
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  check_bool "probes exercised" true (!checked > 10)

let test_cheapest_removal_needs_two () =
  let queries = [| Query.make ~id:0 ~arrival:0.0 ~size:5.0 ~sla:(Sla.one_zero ~bound:50.0) () |] in
  let saw = ref None in
  let ticker sim = saw := Some (Elastic.cheapest_removal sim) in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~ticker:(1.0, ticker) ~queries ~n_servers:1
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  check_bool "single server is never removable" true (!saw = Some None)

(* ------------------------------------------------------------------ *)
(* Drain protocol on the raw simulator *)

let test_boot_delay_respected () =
  (* A server added with a boot delay must refuse dispatches until its
     ready time, then accept. *)
  let sla = Sla.one_zero ~bound:100.0 in
  let queries =
    Array.init 8 (fun i ->
        Query.make ~id:i ~arrival:(Float.of_int i *. 5.0) ~size:4.0 ~sla ())
  in
  let added = ref None in
  let ticker sim =
    if !added = None then added := Some (Sim.add_server ~boot_delay:12.0 sim)
  in
  let observed = ref [] in
  let dispatch sim q =
    (match !added with
    | Some sid ->
      observed := (q.Query.arrival, Sim.dispatchable sim sid) :: !observed
    | None -> ());
    { Sim.target = Some 0; est_delta = None }
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~ticker:(3.0, ticker) ~queries ~n_servers:1
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch ~metrics ();
  (* The ticker fires at t=3 -> ready at 15. Arrivals at 5 and 10 must
     see it unavailable; arrivals from 15 on must see it accepting. *)
  List.iter
    (fun (t, ok) ->
      if t < 15.0 then check_bool "not dispatchable while booting" false ok
      else check_bool "dispatchable once booted" true ok)
    !observed;
  check_bool "observed both phases" true
    (List.exists (fun (t, _) -> t < 15.0) !observed
    && List.exists (fun (t, _) -> t >= 15.0) !observed)

let test_retire_last_server_rejected () =
  let queries = [| Query.make ~id:0 ~arrival:0.0 ~size:5.0 ~sla:(Sla.one_zero ~bound:50.0) () |] in
  let result = ref false in
  let ticker sim =
    result := raises_invalid (fun () -> Sim.retire_server sim 0)
  in
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~ticker:(1.0, ticker) ~queries ~n_servers:1
    ~pick_next:(Schedulers.pick Schedulers.fcfs)
    ~dispatch:(Dispatchers.instantiate Dispatchers.lwl)
    ~metrics ();
  check_bool "cannot drain the whole pool" true !result

(* ------------------------------------------------------------------ *)
(* The controller end to end: conservation and drain discipline *)

(* Replicates Elastic.run's wiring but inserts observers that track
   (a) per-query fate and (b) per-server life-cycle discipline. *)
let run_instrumented ~queries ~config ~policy ~n_servers =
  let n = Array.length queries in
  let completed = Array.make n 0 in
  let dropped = Array.make n 0 in
  let drained = Hashtbl.create 8 in
  let retired = Hashtbl.create 8 in
  let violations = ref [] in
  let c = Elastic.create config policy ~initial_servers:n_servers in
  let metrics = Metrics.create ~warmup_id:0 () in
  let pick_next = Schedulers.pick Schedulers.fcfs_sla_tree in
  let dispatch = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()) in
  let on_server_event ~sid ~now ev =
    (match ev with
    | Sim.Draining -> Hashtbl.replace drained sid ()
    | Sim.Retired -> Hashtbl.replace retired sid ()
    | Sim.Enqueued _ | Sim.Started _ ->
      (* No new work may reach a draining or retired server. A Started
         on a *draining* server is legal only when its own buffer is
         worked off naturally — the controller always redistributes,
         so here both are violations once draining began. *)
      if Hashtbl.mem drained sid || Hashtbl.mem retired sid then
        violations := (sid, now) :: !violations
    | Sim.Dropped q -> dropped.(q.Query.id) <- dropped.(q.Query.id) + 1
    | Sim.Finished _ | Sim.Scaled_up -> ()
    | Sim.Crashed | Sim.Degraded _ | Sim.Restored -> ());
    Elastic.on_server_event c ~sid ~now ev
  in
  Sim.run
    ~on_dispatch:(fun ~now q d -> Elastic.on_dispatch c ~now q d)
    ~on_complete:(fun q ~completion:_ ->
      completed.(q.Query.id) <- completed.(q.Query.id) + 1)
    ~on_server_event
    ~ticker:(config.Elastic.interval, Elastic.tick c)
    ~queries ~n_servers ~pick_next ~dispatch ~metrics ();
  (completed, dropped, !violations, Elastic.summary c, metrics)

let test_conservation_across_scale_events () =
  let queries = bursty_queries () in
  let config =
    mk_config ~interval:150.0 ~cost:3.0 ~boot:50.0 ~cooldown:300.0
      ~min_servers:2 ~max_servers:8 ()
  in
  let completed, dropped, violations, s, metrics =
    run_instrumented ~queries ~config ~policy:Elastic.sla_tree_policy
      ~n_servers:3
  in
  (* The scenario must actually scale in both directions. *)
  check_bool "scaled up" true (s.Elastic.scale_ups > 0);
  check_bool "scaled down" true (s.Elastic.scale_downs > 0);
  (* Conservation: every arrival is served exactly once (no drop
     policy installed), none lost or duplicated during drains. *)
  Array.iteri
    (fun id k ->
      check_int (Printf.sprintf "query %d served exactly once" id) 1 k;
      check_int (Printf.sprintf "query %d never dropped" id) 0 dropped.(id))
    completed;
  check_int "metrics agree" (Array.length queries)
    (Metrics.completed_count metrics);
  check_int "no dispatches to draining/retired servers" 0
    (List.length violations);
  check_bool "pool stayed in bounds" true
    (s.Elastic.peak_pool <= 8 && s.Elastic.min_pool >= 2)

let test_conservation_with_drop_policy () =
  (* Same invariant with drops allowed: served once XOR dropped once. *)
  let queries = bursty_queries ~seed:98765 () in
  let config =
    mk_config ~interval:150.0 ~cost:3.0 ~cooldown:300.0 ~min_servers:2
      ~max_servers:8 ()
  in
  let n = Array.length queries in
  let completed = Array.make n 0 in
  let dropped = Array.make n 0 in
  let c = Elastic.create config Elastic.sla_tree_policy ~initial_servers:3 in
  let metrics = Metrics.create ~warmup_id:0 () in
  let pick_next = Schedulers.pick Schedulers.fcfs_sla_tree in
  let dispatch = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()) in
  let on_server_event ~sid ~now ev =
    (match ev with
    | Sim.Dropped q -> dropped.(q.Query.id) <- dropped.(q.Query.id) + 1
    | _ -> ());
    Elastic.on_server_event c ~sid ~now ev
  in
  Sim.run ~drop_policy:Sim.drop_past_last_deadline
    ~on_dispatch:(fun ~now q d -> Elastic.on_dispatch c ~now q d)
    ~on_complete:(fun q ~completion:_ ->
      completed.(q.Query.id) <- completed.(q.Query.id) + 1)
    ~on_server_event
    ~ticker:(config.Elastic.interval, Elastic.tick c)
    ~queries ~n_servers:3 ~pick_next ~dispatch ~metrics ();
  Array.iteri
    (fun id k ->
      check_int
        (Printf.sprintf "query %d served or dropped exactly once" id)
        1
        (k + dropped.(id)))
    completed;
  check_int "counts partition the trace" n
    (Metrics.completed_count metrics + Metrics.dropped_count metrics)

let test_pool_bounds_enforced () =
  (* Pathological policies must be clamped by the controller. *)
  let queries = bursty_queries ~n:800 () in
  let config =
    mk_config ~interval:100.0 ~min_servers:2 ~max_servers:5 ()
  in
  let always what = { Elastic.name = "always"; decide = (fun _ -> what) } in
  let _, _, _, up, _ =
    run_instrumented ~queries ~config ~policy:(always (Elastic.Scale_up 3))
      ~n_servers:3
  in
  check_bool "never exceeds max" true (up.Elastic.peak_pool <= 5);
  let _, _, violations, down, m =
    run_instrumented ~queries ~config ~policy:(always (Elastic.Scale_down 3))
      ~n_servers:4
  in
  check_bool "never under min" true (down.Elastic.min_pool >= 2);
  check_int "drain discipline holds" 0 (List.length violations);
  check_int "still conserves queries" 800 (Metrics.completed_count m)

let test_static_policy_holds () =
  let queries = bursty_queries ~n:600 () in
  let config = mk_config ~interval:100.0 () in
  let _, _, _, s, _ =
    run_instrumented ~queries ~config ~policy:Elastic.static ~n_servers:3
  in
  check_int "no ups" 0 s.Elastic.scale_ups;
  check_int "no downs" 0 s.Elastic.scale_downs;
  check_int "peak = initial" 3 s.Elastic.peak_pool;
  check_int "min = initial" 3 s.Elastic.min_pool;
  check_bool "made decisions" true (s.Elastic.decisions > 0);
  check_bool "paid rent" true (s.Elastic.cost > 0.0)

(* ------------------------------------------------------------------ *)
(* Server types: quantum billing and the legacy flat-rate path *)

let test_server_type_validation () =
  let mk ?speed ?(price = 1.0) ?(quantum = 100.0) ?boot_delay name =
    Elastic.server_type ?speed ?boot_delay ~name ~price ~quantum ()
  in
  check_bool "empty name" true (raises_invalid (fun () -> mk ""));
  check_bool "zero speed" true (raises_invalid (fun () -> mk ~speed:0.0 "m"));
  check_bool "negative price" true
    (raises_invalid (fun () -> mk ~price:(-1.0) "m"));
  check_bool "zero quantum" true
    (raises_invalid (fun () -> mk ~quantum:0.0 "m"));
  check_bool "negative boot delay" true
    (raises_invalid (fun () -> mk ~boot_delay:(-1.0) "m"))

let test_quantum_round_up () =
  let ty = Elastic.server_type ~name:"m" ~price:3.0 ~quantum:100.0 () in
  let bill uptime = Elastic.quantum_cost ty ~uptime in
  (* A started quantum is a billed quantum: even zero uptime owes one. *)
  check_float "zero uptime owes a quantum" 3.0 (bill 0.0);
  check_float "partial quantum rounds up" 3.0 (bill 1.0);
  check_float "exact boundary stays at one" 3.0 (bill 100.0);
  check_float "just past the boundary owes two" 6.0 (bill 101.0);
  check_float "two and a half quanta owe three" 9.0 (bill 250.0)

let test_untyped_config_flat_billing () =
  (* With [types] left empty the controller must bill exactly the
     legacy flat integral — the typed path contributes nothing, down
     to the last bit of the cost float. *)
  let queries = bursty_queries () in
  let config =
    mk_config ~interval:150.0 ~cost:3.0 ~boot:50.0 ~cooldown:300.0
      ~min_servers:2 ~max_servers:8 ()
  in
  let _, _, _, s, _ =
    run_instrumented ~queries ~config ~policy:Elastic.sla_tree_policy
      ~n_servers:3
  in
  check_bool "scenario scaled" true (s.Elastic.scale_ups > 0);
  Alcotest.(check int64)
    "cost is the flat integral, bitwise"
    (Int64.bits_of_float (s.Elastic.server_time /. 150.0 *. 3.0))
    (Int64.bits_of_float s.Elastic.cost);
  check_float "typed share is zero" 0.0 s.Elastic.typed_cost;
  check_bool "no typed boots" true (s.Elastic.boots_by_type = [])

let test_typed_pool_billing () =
  (* With server types configured, scale-up boots pick a type, each
     boot is billed at least one quantum, and the total cost splits
     exactly into flat integral + typed quanta. *)
  let small = Elastic.server_type ~name:"small" ~price:2.0 ~quantum:150.0 () in
  let large =
    Elastic.server_type ~speed:2.0 ~boot_delay:40.0 ~name:"large" ~price:4.5
      ~quantum:150.0 ()
  in
  let config =
    Elastic.config ~interval:150.0 ~cost_per_interval:3.0 ~boot_delay:50.0
      ~cooldown:300.0
      ~types:[| small; large |]
      ~min_servers:2 ~max_servers:8 ()
  in
  let queries = bursty_queries () in
  let c = Elastic.create config Elastic.sla_tree_policy ~initial_servers:3 in
  let metrics = Metrics.create ~warmup_id:0 () in
  let pick_next = Schedulers.pick Schedulers.fcfs_sla_tree in
  let dispatch = Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()) in
  let on_server_event ~sid ~now ev =
    Elastic.on_server_event c ~sid ~now ev
  in
  let last = ref 0.0 in
  let tick sim =
    last := Sim.now sim;
    Elastic.tick c sim
  in
  Sim.run
    ~on_dispatch:(fun ~now q d -> Elastic.on_dispatch c ~now q d)
    ~on_server_event
    ~ticker:(config.Elastic.interval, tick)
    ~queries ~n_servers:3 ~pick_next ~dispatch ~metrics ();
  Elastic.finalize c ~now:!last;
  let s = Elastic.summary c in
  check_bool "scenario scaled" true (s.Elastic.scale_ups > 0);
  let boots =
    List.fold_left (fun acc (_, k) -> acc + k) 0 s.Elastic.boots_by_type
  in
  check_bool "boots carry a type" true (boots > 0);
  check_bool "typed quanta billed" true (s.Elastic.typed_cost > 0.0);
  check_bool "each boot owes at least the cheapest quantum" true
    (s.Elastic.typed_cost >= Float.of_int boots *. 2.0);
  Alcotest.(check int64)
    "cost = flat integral + typed quanta, bitwise"
    (Int64.bits_of_float
       ((s.Elastic.server_time /. 150.0 *. 3.0) +. s.Elastic.typed_cost))
    (Int64.bits_of_float s.Elastic.cost)

(* ------------------------------------------------------------------ *)
(* Cooldown semantics: shrink-only throttling (regression for the
   audit in the predictive-autoscaling change) *)

let test_cooldown_gates_scale_down_only () =
  let always what = { Elastic.name = "always"; decide = (fun _ -> what) } in
  let queries = bursty_queries ~n:800 () in
  let interval = 100.0 and cooldown = 350.0 in
  let config =
    mk_config ~interval ~cooldown ~min_servers:2 ~max_servers:8 ()
  in
  (* A policy demanding a shrink every tick gets one at most every
     cooldown. *)
  let _, _, _, down, _ =
    run_instrumented ~queries ~config ~policy:(always (Elastic.Scale_down 1))
      ~n_servers:8
  in
  check_bool "shrinks happened" true (down.Elastic.scale_downs >= 2);
  let rec gaps = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      check_bool
        (Printf.sprintf "downs %.0f -> %.0f spaced by cooldown" t1 t2)
        true
        (t2 -. t1 >= cooldown);
      gaps rest
    | _ -> ()
  in
  gaps down.Elastic.events;
  (* The same cooldown must never throttle growth: per the config
     contract, scale-ups stay back-to-back. *)
  let _, _, _, up, _ =
    run_instrumented ~queries ~config ~policy:(always (Elastic.Scale_up 1))
      ~n_servers:2
  in
  check_int "pool filled" 6 up.Elastic.scale_ups;
  let rec has_consecutive = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      t2 -. t1 <= interval +. 1e-9 || has_consecutive rest
    | _ -> false
  in
  check_bool "ups fire on consecutive ticks inside the cooldown" true
    (has_consecutive up.Elastic.events)

(* ------------------------------------------------------------------ *)
(* Policy thresholds *)

(* One decision window as a policy sees it: a pool of two accepting
   servers with an empty queue and a free removal, unless overridden.
   [arrivals] defaults to 0 (a quiet window); with one arrival the
   window's gain is exactly [margin_per_query]. *)
let observation ?(now = 0.0) ?(accepting = 2) ?(queue_len = 0) ?(arrivals = 0)
    ?(margin_per_query = 0.0) ?(removal_cost = 0.0) cfg =
  {
    Elastic.now;
    pool = accepting;
    accepting;
    queue_len;
    backlog = 0.0;
    arrivals;
    margin_per_query;
    removal_cost;
    cfg;
  }

let check_action msg expected policy o =
  let got = policy.Elastic.decide o in
  if got <> expected then
    Alcotest.failf "%s: expected %a, got %a" msg Elastic.pp_action expected
      Elastic.pp_action got

let test_sla_tree_policy_thresholds () =
  (* Rent is one interval's cost; scale-down needs the gain below half
     of it. Each boundary is probed one ulp either side. *)
  let rent = 2.0 in
  let cfg = mk_config ~cost:rent () in
  let decide ?removal_cost gain =
    observation ~arrivals:1 ~margin_per_query:gain ?removal_cost cfg
  in
  let p = Elastic.sla_tree_policy in
  check_action "just above the rent" (Elastic.Scale_up 1) p
    (decide (Float.succ rent));
  check_action "at the rent" Elastic.Hold p (decide rent);
  check_action "just below the rent" Elastic.Hold p (decide (Float.pred rent));
  check_action "at 4x the rent" (Elastic.Scale_up 1) p (decide (4.0 *. rent));
  check_action "above 4x the rent" (Elastic.Scale_up 2) p
    (decide (Float.succ (4.0 *. rent)));
  check_action "just below half the rent, cheap removal"
    (Elastic.Scale_down 1) p
    (decide (Float.pred (0.5 *. rent)));
  check_action "just above half the rent" Elastic.Hold p
    (decide (Float.succ (0.5 *. rent)));
  check_action "below half the rent, removal costs a rent" Elastic.Hold p
    (decide ~removal_cost:rent (Float.pred (0.5 *. rent)))

let test_queue_threshold_levels () =
  (* Up above 3.0 buffered queries per accepting server, down below
     0.5; a hundred accepting servers put the boundaries 0.01 apart. *)
  let cfg = mk_config () in
  let per queue_len = observation ~accepting:100 ~queue_len cfg in
  let p = Elastic.queue_threshold () in
  check_action "3.01 per server" (Elastic.Scale_up 1) p (per 301);
  check_action "3.00 per server" Elastic.Hold p (per 300);
  check_action "0.50 per server" Elastic.Hold p (per 50);
  check_action "0.49 per server" (Elastic.Scale_down 1) p (per 49);
  check_action "0.49 per server, no removable server" Elastic.Hold p
    { (per 49) with Elastic.removal_cost = infinity }

let test_scheduled_is_oracle () =
  Alcotest.(check string)
    "name" "oracle"
    (Elastic.policy_name (Elastic.scheduled ~target:(fun ~now:_ -> 2) ()))

(* ------------------------------------------------------------------ *)
(* Predictive policy: the pending-boot guard *)

(* A forecaster already convinced a big square peak is coming: season 8,
   duty 0.5, amplitude far above any rent used below. *)
let trained_square n =
  let f = Forecast.holt_winters ~season:8 () in
  for i = 0 to n - 1 do
    Forecast.observe f (if i mod 8 >= 4 then 100.0 else 0.0)
  done;
  f

let test_predictive_no_double_boot () =
  (* boot_delay spans several intervals; the forecast branch fires
     once, then must hold the identical evidence until those servers
     are online — the controller's cooldown would NOT stop the repeat
     (it gates scale-downs only, proven above). *)
  let cfg = mk_config ~interval:100.0 ~cost:2.0 ~boot:250.0 () in
  (* A quiet window, so the reactive rule sees nothing, and a free
     removal, so only the forecast holds capacity. *)
  let obs_at now = observation ~now cfg in
  let p = Elastic.predictive ~forecast:(trained_square 24) ~horizon:4 () in
  (match p.Elastic.decide (obs_at 0.0) with
  | Elastic.Scale_up _ -> ()
  | a -> Alcotest.failf "expected forecast-driven scale-up, got %a" Elastic.pp_action a);
  (* Same predicted peak one and two ticks later, servers still
     booting: both the re-buy and the scale-down must be suppressed. *)
  check_bool "tick 2 holds" true (p.Elastic.decide (obs_at 100.0) = Elastic.Hold);
  check_bool "tick 3 holds" true (p.Elastic.decide (obs_at 200.0) = Elastic.Hold);
  (* Counterfactual: a fresh policy whose forecaster saw the same
     history but has no boot in flight fires on that same tick-2
     evidence — the pending guard is the only thing holding back. *)
  let p' = Elastic.predictive ~forecast:(trained_square 25) ~horizon:4 () in
  match p'.Elastic.decide (obs_at 100.0) with
  | Elastic.Scale_up _ -> ()
  | a ->
    Alcotest.failf "counterfactual should scale up, got %a" Elastic.pp_action a

(* ------------------------------------------------------------------ *)
(* Economics: the headline acceptance criterion *)

let test_autoscaler_beats_statics () =
  (* On the diurnal experiment workload the SLA-tree autoscaler's net
     (profit - rent) must be at least both static configurations', and
     the queue-threshold baseline must run under the same harness. *)
  let scale = Exp_scale.smoke in
  let rows = Exp_elastic.rows ~scale ~seed:scale.Exp_scale.base_seed () in
  let find l =
    match List.find_opt (fun r -> r.Exp_elastic.label = l) rows with
    | Some r -> r
    | None -> Alcotest.failf "row %s missing" l
  in
  let auto = find "autoscale/SLA-tree" in
  let small = find "static-small" in
  let large = find "static-large" in
  let queue = find "autoscale/queue" in
  check_bool
    (Printf.sprintf "beats static-small (%.0f vs %.0f)" auto.Exp_elastic.net
       small.Exp_elastic.net)
    true
    (auto.Exp_elastic.net >= small.Exp_elastic.net);
  check_bool
    (Printf.sprintf "beats static-large (%.0f vs %.0f)" auto.Exp_elastic.net
       large.Exp_elastic.net)
    true
    (auto.Exp_elastic.net >= large.Exp_elastic.net);
  check_bool "queue baseline actually scaled" true
    (queue.Exp_elastic.ups + queue.Exp_elastic.downs > 0);
  check_bool "autoscaler adapted the pool" true
    (auto.Exp_elastic.peak > auto.Exp_elastic.low)

let three_way shape =
  let scale = Exp_scale.smoke in
  let rows =
    Exp_elastic.rows ~shape ~scale ~seed:scale.Exp_scale.base_seed ()
  in
  let find l =
    match List.find_opt (fun r -> r.Exp_elastic.label = l) rows with
    | Some r -> r.Exp_elastic.net
    | None -> Alcotest.failf "row %s missing" l
  in
  ( find Exp_elastic.reactive_label,
    find Exp_elastic.predictive_label,
    find Exp_elastic.oracle_label )

let test_three_way_ordering_diurnal () =
  (* The tentpole claim: with a real boot delay on a cyclic workload,
     forecast-ahead boots strictly beat reacting after the ramp, and
     the perfect-foresight oracle bounds both from above. *)
  let reactive, predictive, oracle = three_way Exp_elastic.Diurnal in
  check_bool
    (Printf.sprintf "predictive strictly beats reactive (%.0f > %.0f)"
       predictive reactive)
    true (predictive > reactive);
  check_bool
    (Printf.sprintf "oracle bounds predictive (%.0f >= %.0f)" oracle predictive)
    true (oracle >= predictive)

let test_three_way_ordering_square () =
  let reactive, predictive, oracle = three_way Exp_elastic.Square in
  check_bool
    (Printf.sprintf "predictive beats reactive (%.0f >= %.0f)" predictive
       reactive)
    true (predictive >= reactive);
  check_bool
    (Printf.sprintf "oracle bounds predictive (%.0f >= %.0f)" oracle predictive)
    true (oracle >= predictive)

let test_steady_prediction_tax_bounded () =
  (* The no-structure control: Holt–Winters learns cycle-1 noise as
     "seasonality", so a small tax vs the reactive rule is expected —
     but it must stay small, and the oracle still bounds everything. *)
  let reactive, predictive, oracle = three_way Exp_elastic.Steady in
  check_bool
    (Printf.sprintf "tax bounded (%.0f >= 0.85 * %.0f)" predictive reactive)
    true
    (predictive >= 0.85 *. reactive);
  check_bool
    (Printf.sprintf "oracle on top (%.0f >= %.0f)" oracle
       (Float.max reactive predictive))
    true
    (oracle >= Float.max reactive predictive)

let test_elastic_run_harness () =
  (* The one-call harness agrees with the instrumented wiring. *)
  let queries = bursty_queries ~n:600 () in
  let config =
    mk_config ~interval:150.0 ~cost:3.0 ~cooldown:300.0 ~min_servers:2
      ~max_servers:8 ()
  in
  let metrics, s =
    Elastic.run ~policy:Elastic.sla_tree_policy ~config ~queries ~n_servers:3
      ~warmup_id:0 ()
  in
  check_int "all served" 600 (Metrics.completed_count metrics);
  check_bool "cost positive" true (s.Elastic.cost > 0.0);
  let total =
    List.fold_left
      (fun acc (_, a) ->
        match a with
        | Elastic.Scale_up k | Elastic.Scale_down k -> acc + k
        | Elastic.Hold -> acc)
      0 s.Elastic.events
  in
  check_int "events match counters"
    (s.Elastic.scale_ups + s.Elastic.scale_downs)
    total

let () =
  Alcotest.run "elastic"
    [
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "probes",
        [
          Alcotest.test_case "removal cost" `Quick test_removal_probe;
          Alcotest.test_case "cheapest needs two" `Quick
            test_cheapest_removal_needs_two;
        ] );
      ( "drain-protocol",
        [
          Alcotest.test_case "boot delay" `Quick test_boot_delay_respected;
          Alcotest.test_case "last server protected" `Quick
            test_retire_last_server_rejected;
        ] );
      ( "controller",
        [
          Alcotest.test_case "conservation across scale events" `Quick
            test_conservation_across_scale_events;
          Alcotest.test_case "conservation with drops" `Quick
            test_conservation_with_drop_policy;
          Alcotest.test_case "pool bounds" `Quick test_pool_bounds_enforced;
          Alcotest.test_case "static holds" `Quick test_static_policy_holds;
          Alcotest.test_case "run harness" `Quick test_elastic_run_harness;
        ] );
      ( "server-types",
        [
          Alcotest.test_case "type validation" `Quick
            test_server_type_validation;
          Alcotest.test_case "quantum round-up" `Quick test_quantum_round_up;
          Alcotest.test_case "untyped config bills flat, bitwise" `Quick
            test_untyped_config_flat_billing;
          Alcotest.test_case "typed pool billing" `Quick
            test_typed_pool_billing;
        ] );
      ( "cooldown",
        [
          Alcotest.test_case "gates scale-down only" `Quick
            test_cooldown_gates_scale_down_only;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "sla-tree policy" `Quick
            test_sla_tree_policy_thresholds;
          Alcotest.test_case "queue threshold" `Quick
            test_queue_threshold_levels;
          Alcotest.test_case "scheduled is the oracle" `Quick
            test_scheduled_is_oracle;
        ] );
      ( "predictive",
        [
          Alcotest.test_case "no double boot while pending" `Quick
            test_predictive_no_double_boot;
        ] );
      ( "economics",
        [
          Alcotest.test_case "autoscaler beats statics" `Slow
            test_autoscaler_beats_statics;
          Alcotest.test_case "three-way ordering (diurnal)" `Slow
            test_three_way_ordering_diurnal;
          Alcotest.test_case "three-way ordering (square)" `Slow
            test_three_way_ordering_square;
          Alcotest.test_case "steady prediction tax bounded" `Slow
            test_steady_prediction_tax_bounded;
        ] );
    ]
