(* Tests for planners and schedulers: FCFS/SJF/EDF orders, CBS
   priorities, insertion ranks, and SLA-tree-enhanced picking. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_perm = Alcotest.(check (array int))

let sla ?(bound = 100.0) ?(gain = 1.0) () = Sla.single_step ~bound ~gain

let mk ?(sla = sla ()) ?est id arrival size =
  Query.make ?est_size:est ~id ~arrival ~size ~sla ()

let buffer3 () = [| mk 0 0.0 5.0; mk 1 1.0 1.0; mk 2 2.0 3.0 |]

(* ------------------------------------------------------------------ *)
(* Planners *)

let test_fcfs_plan () =
  check_perm "identity" [| 0; 1; 2 |] (Planner.plan Planner.fcfs ~now:10.0 (buffer3 ()))

let test_sjf_plan () =
  check_perm "by size" [| 1; 2; 0 |] (Planner.plan Planner.sjf ~now:10.0 (buffer3 ()))

let test_sjf_stability () =
  let b = [| mk 0 0.0 2.0; mk 1 1.0 2.0; mk 2 2.0 2.0 |] in
  check_perm "ties keep arrival order" [| 0; 1; 2 |]
    (Planner.plan Planner.sjf ~now:10.0 b)

let test_edf_plan () =
  let b =
    [|
      mk ~sla:(sla ~bound:50.0 ()) 0 0.0 1.0;
      (* deadline 50 *)
      mk ~sla:(sla ~bound:10.0 ()) 1 1.0 1.0;
      (* deadline 11 *)
      mk ~sla:(sla ~bound:20.0 ()) 2 2.0 1.0;
      (* deadline 22 *)
    |]
  in
  check_perm "by first deadline" [| 1; 2; 0 |] (Planner.plan Planner.edf ~now:5.0 b)

let test_value_edf_plan () =
  (* High-value queries first; deadlines order within a value class. *)
  let b =
    [|
      mk ~sla:(sla ~bound:10.0 ~gain:1.0 ()) 0 0.0 1.0;
      mk ~sla:(sla ~bound:50.0 ~gain:5.0 ()) 1 1.0 1.0;
      mk ~sla:(sla ~bound:20.0 ~gain:5.0 ()) 2 2.0 1.0;
    |]
  in
  (* Values: 1, 5, 5. Class-5 ordered by deadline: q2 (22) before q1 (51). *)
  check_perm "value then deadline" [| 2; 1; 0 |]
    (Planner.plan Planner.value_edf ~now:5.0 b)

let test_value_edf_stability () =
  let b = Array.init 3 (fun i -> mk ~sla:(sla ~bound:10.0 ()) i 0.0 1.0) in
  check_perm "full ties keep arrival order" [| 0; 1; 2 |]
    (Planner.plan Planner.value_edf ~now:0.0 b)

let test_cbs_priority_urgency () =
  (* Two queries, same size and SLA; the one closer to its deadline has
     higher expected loss, hence higher CBS priority. *)
  let rate = 0.05 in
  let a = mk 0 0.0 10.0 in
  let b = mk 1 50.0 10.0 in
  let now = 60.0 in
  let pa = Planner.cbs_priority ~rate ~now a in
  let pb = Planner.cbs_priority ~rate ~now b in
  check_bool "older query more urgent" true (pa > pb)

let test_cbs_priority_cheap_work () =
  (* Same loss at stake, but a shorter query has a higher priority per
     unit of work. *)
  let rate = 0.05 in
  let short = mk ~sla:(sla ~bound:30.0 ()) 0 0.0 2.0 in
  let long = mk ~sla:(sla ~bound:30.0 ()) 1 0.0 20.0 in
  let now = 25.0 in
  check_bool "short beats long" true
    (Planner.cbs_priority ~rate ~now short > Planner.cbs_priority ~rate ~now long)

let test_cbs_plan_orders_by_priority () =
  let rate = 0.05 in
  let planner = Planner.cbs ~rate in
  let b = buffer3 () in
  let now = 10.0 in
  let perm = Planner.plan planner ~now b in
  let prios = Array.map (fun i -> Planner.cbs_priority ~rate ~now b.(i)) perm in
  check_bool "descending priorities" true
    (Arrayx.is_sorted Float.compare (Array.map (fun p -> -.p) prios))

let test_cbs_invalid_rate () =
  check_bool "rate 0 rejected" true
    (match Planner.cbs ~rate:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_insertion_rank_fcfs_appends () =
  let b = buffer3 () in
  let q = mk 99 5.0 1.0 in
  check_int "fcfs appends" 3 (Planner.insertion_rank Planner.fcfs ~now:10.0 b q)

let test_insertion_rank_sjf () =
  let b = buffer3 () in
  (* sizes in plan order: 1, 3, 5. A size-2 newcomer ranks second. *)
  let q = mk 99 5.0 2.0 in
  check_int "sjf slot" 1 (Planner.insertion_rank Planner.sjf ~now:10.0 b q);
  (* A tie (size 3) goes after the incumbent. *)
  let q3 = mk 98 5.0 3.0 in
  check_int "tie loses" 2 (Planner.insertion_rank Planner.sjf ~now:10.0 b q3)

let test_insertion_rank_bounds () =
  let b = buffer3 () in
  let tiny = mk 99 5.0 0.1 in
  let huge = mk 97 5.0 100.0 in
  check_int "front" 0 (Planner.insertion_rank Planner.sjf ~now:10.0 b tiny);
  check_int "back" 3 (Planner.insertion_rank Planner.sjf ~now:10.0 b huge)

let test_planned_queries () =
  let b = buffer3 () in
  let planned = Planner.planned_queries Planner.sjf ~now:10.0 b in
  check_int "first is smallest" 1 planned.(0).Query.id

(* ------------------------------------------------------------------ *)
(* Schedulers *)

let test_of_planner_picks_head () =
  let s = Schedulers.sjf in
  check_int "picks size-1 query" 1 (Schedulers.pick s ~now:10.0 (buffer3 ()))

let test_scheduler_names () =
  Alcotest.(check string) "fcfs" "FCFS" (Schedulers.name Schedulers.fcfs);
  Alcotest.(check string) "fcfs tree" "FCFS+SLA-tree"
    (Schedulers.name Schedulers.fcfs_sla_tree);
  Alcotest.(check string) "cbs tree" "CBS+SLA-tree"
    (Schedulers.name (Schedulers.cbs_sla_tree ~rate:0.05))

let test_sla_tree_scheduler_rushes_urgent () =
  (* Under FCFS order, q1 would miss its tight deadline; the SLA-tree
     wrapper must rush it. *)
  let b =
    [|
      mk ~sla:(sla ~bound:100.0 ()) 0 0.0 10.0;
      mk ~sla:(sla ~bound:5.0 ~gain:5.0 ()) 1 0.0 2.0;
    |]
  in
  check_int "baseline keeps head" 0 (Schedulers.pick Schedulers.fcfs ~now:0.0 b);
  check_int "SLA-tree rushes q1" 1
    (Schedulers.pick Schedulers.fcfs_sla_tree ~now:0.0 b)

let test_sla_tree_scheduler_keeps_order_when_no_gain () =
  let b = Array.init 4 (fun i -> mk i 0.0 1.0) in
  check_int "no improvement -> head" 0
    (Schedulers.pick Schedulers.fcfs_sla_tree ~now:0.0 b)

let test_sla_tree_over_cbs_maps_back () =
  (* The wrapper must return an index into the original (arrival-order)
     buffer even when the underlying planner reorders. *)
  let b = buffer3 () in
  let idx = Schedulers.pick (Schedulers.cbs_sla_tree ~rate:0.05) ~now:10.0 b in
  check_bool "valid index" true (idx >= 0 && idx < 3)

(* A scheduling decision must never pick an out-of-range index on
   random buffers. *)
let prop_pick_in_range =
  QCheck.Test.make ~name:"pick index always in range" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let b =
        Array.init n (fun id ->
            let size = 0.1 +. (Prng.float rng *. 30.0) in
            let bound = 1.0 +. (Prng.float rng *. 100.0) in
            let arrival = Prng.float rng *. 50.0 in
            mk ~sla:(sla ~bound ()) id arrival size)
      in
      List.for_all
        (fun s ->
          let i = Schedulers.pick s ~now:60.0 b in
          i >= 0 && i < n)
        [
          Schedulers.fcfs;
          Schedulers.sjf;
          Schedulers.edf;
          Schedulers.value_edf;
          Schedulers.cbs ~rate:0.05;
          Schedulers.fcfs_sla_tree;
          Schedulers.sjf_sla_tree;
          Schedulers.edf_sla_tree;
          Schedulers.value_edf_sla_tree;
          Schedulers.cbs_sla_tree ~rate:0.05;
        ])

(* The one static entry point, which builds its tree only when some
   candidate passes the bound, decides exactly like a tree built up
   front and scanned without the prune, under every planner. *)
let prop_best_rush_planned_matches_unpruned =
  QCheck.Test.make ~name:"best_rush_planned == build + unpruned scan"
    ~count:300
    QCheck.(pair (int_range 0 30) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let b =
        Array.init n (fun id ->
            let size = 0.1 +. (Prng.float rng *. 30.0) in
            let est =
              if Prng.float rng < 0.1 then 0.0
              else size *. (0.5 +. Prng.float rng)
            in
            let bound = 1.0 +. (Prng.float rng *. 60.0) in
            let sla =
              Sla.make
                ~levels:
                  [
                    { bound; gain = 1.0 +. Prng.float rng };
                    { bound = 3.0 *. bound; gain = 0.5 };
                  ]
                ~penalty:(Prng.float rng)
            in
            mk ~sla ~est id (Prng.float rng *. 50.0) size)
      in
      let now = 60.0 in
      List.for_all
        (fun planner ->
          let planned = Planner.planned_queries planner ~now b in
          let lazy_ = What_if.best_rush_planned ~now planned
          and oracle = Rush_oracle.best_rush (Sla_tree.build ~now planned) in
          Rush_oracle.same lazy_ oracle
          || QCheck.Test.fail_reportf "%s: %s, oracle %s" (Planner.name planner)
               (Rush_oracle.to_string lazy_)
               (Rush_oracle.to_string oracle))
        [
          Planner.fcfs;
          Planner.sjf;
          Planner.edf;
          Planner.value_edf;
          Planner.cbs ~rate:0.05;
        ])

(* ------------------------------------------------------------------ *)
(* Frontend (the paper's Fig 2 interface) *)

let test_frontend_fifo_cycle () =
  let f = Frontend.create ~sla_tree:false Planner.fcfs in
  check_bool "empty at start" true (Frontend.get_next_query f ~now:0.0 = None);
  Frontend.query_arrive f (mk 0 0.0 5.0);
  Frontend.query_arrive f (mk 1 1.0 3.0);
  check_int "two buffered" 2 (Frontend.buffer_length f);
  (match Frontend.get_next_query f ~now:2.0 with
  | Some q -> check_int "fifo head" 0 q.Query.id
  | None -> Alcotest.fail "expected a query");
  (match Frontend.get_next_query f ~now:7.0 with
  | Some q -> check_int "fifo next" 1 q.Query.id
  | None -> Alcotest.fail "expected a query");
  check_bool "drained" true (Frontend.get_next_query f ~now:10.0 = None);
  check_int "arrivals counted" 2 (Frontend.arrivals f);
  check_int "decisions counted" 2 (Frontend.decisions f);
  check_int "no rushes in fifo mode" 0 (Frontend.rushes f)

let test_frontend_rushes_urgent () =
  let f = Frontend.create Planner.fcfs in
  Frontend.query_arrive f (mk ~sla:(sla ~bound:100.0 ()) 0 0.0 10.0);
  Frontend.query_arrive f (mk ~sla:(sla ~bound:5.0 ~gain:5.0 ()) 1 0.0 2.0);
  (match Frontend.get_next_query f ~now:0.0 with
  | Some q -> check_int "urgent query rushed" 1 q.Query.id
  | None -> Alcotest.fail "expected a query");
  check_int "rush counted" 1 (Frontend.rushes f);
  match Frontend.get_next_query f ~now:2.0 with
  | Some q -> check_int "then the other" 0 q.Query.id
  | None -> Alcotest.fail "expected a query"

let test_frontend_what_if_tree () =
  let f = Frontend.create Planner.fcfs in
  Frontend.query_arrive f (mk 0 0.0 5.0);
  Frontend.query_arrive f (mk 1 0.0 5.0);
  let tree = Frontend.what_if_tree f ~now:0.0 in
  check_int "tree over buffer" 2 (Sla_tree.length tree);
  check_bool "profit at stake" true (Sla_tree.total_profit_at_stake tree > 0.0)

let test_frontend_matches_sim_scheduler () =
  (* Replaying a trace through the frontend must realize the same
     profit as the simulator running the equivalent scheduler. *)
  let cfg =
    Trace.config ~kind:Workloads.Ssbm_wl ~profile:Workloads.Sla_b ~load:0.9
      ~servers:1 ~n_queries:1_500 ~seed:606 ()
  in
  let queries = Trace.generate cfg in
  (* Simulator run. *)
  let metrics = Metrics.create ~warmup_id:0 () in
  Sim.run ~queries ~n_servers:1
    ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
    ~dispatch:(fun _ _ -> { Sim.target = Some 0; est_delta = None })
    ~metrics ();
  (* Frontend-driven replay of the same single-server discipline. *)
  let f = Frontend.create Planner.fcfs in
  let profit = ref 0.0 in
  let now = ref 0.0 in
  let next_arrival = ref 0 in
  let running_until = ref None in
  let n = Array.length queries in
  let continue = ref true in
  while !continue do
    let next_arr = if !next_arrival < n then Some queries.(!next_arrival) else None in
    match (!running_until, next_arr) with
    | None, None when Frontend.buffer_length f = 0 -> continue := false
    | None, Some q when Frontend.buffer_length f = 0 ->
      now := Float.max !now q.Query.arrival;
      Frontend.query_arrive f q;
      incr next_arrival
    | None, _ -> begin
      match Frontend.get_next_query f ~now:!now with
      | Some q -> running_until := Some (!now +. q.Query.size, q)
      | None -> continue := false
    end
    | Some (t_done, _), Some q when q.Query.arrival <= t_done ->
      Frontend.query_arrive f q;
      incr next_arrival
    | Some (t_done, q), _ ->
      now := t_done;
      profit := !profit +. Query.profit_at q ~completion:t_done;
      running_until := None
  done;
  check_bool "same realized profit" true
    (Float.abs (!profit -. Metrics.total_profit metrics) < 1e-6)

(* End-to-end: on a congested trace, the SLA-tree wrapper must not do
   worse than its baseline (this is the paper's headline Table 2
   relation, checked here at small scale as a test). *)
let run_loss scheduler queries =
  let metrics = Metrics.create ~warmup_id:(Array.length queries / 4) () in
  Sim.run ~queries ~n_servers:1
    ~pick_next:(Schedulers.pick scheduler)
    ~dispatch:(fun _ _ -> { Sim.target = Some 0; est_delta = None })
    ~metrics ();
  Metrics.avg_loss metrics

let test_sla_tree_improves_fcfs_end_to_end () =
  let cfg =
    Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_a ~load:0.9
      ~servers:1 ~n_queries:3_000 ~seed:2024 ()
  in
  let queries = Trace.generate cfg in
  let base = run_loss Schedulers.fcfs queries in
  let tree = run_loss Schedulers.fcfs_sla_tree queries in
  check_bool
    (Printf.sprintf "fcfs %.3f >= fcfs+tree %.3f" base tree)
    true
    (tree <= base +. 0.01)

let test_sla_tree_improves_cbs_end_to_end () =
  let cfg =
    Trace.config ~kind:Workloads.Ssbm_wl ~profile:Workloads.Sla_b ~load:0.9
      ~servers:1 ~n_queries:3_000 ~seed:2025 ()
  in
  let queries = Trace.generate cfg in
  let rate = 1.0 /. Workloads.nominal_mean_ms Workloads.Ssbm_wl in
  let base = run_loss (Schedulers.cbs ~rate) queries in
  let tree = run_loss (Schedulers.cbs_sla_tree ~rate) queries in
  check_bool
    (Printf.sprintf "cbs %.3f >= cbs+tree %.3f (within noise)" base tree)
    true
    (tree <= base +. 0.05)

(* ------------------------------------------------------------------ *)
(* Offline optimal (Sec 8.2's exact reference) *)

let table7 () =
  let mk id size bound gain =
    Query.make ~id ~arrival:0.0 ~size ~sla:(Sla.single_step ~bound ~gain) ()
  in
  [| mk 0 1.0 1.0 1.0; mk 1 0.5 1.0 0.6; mk 2 0.5 1.0 0.6 |]

let test_optimal_on_table7 () =
  let optimal, order = Offline_optimal.solve ~now:0.0 (table7 ()) in
  Alcotest.(check (float 1e-9)) "optimum is 1.2" 1.2 optimal;
  Alcotest.(check (float 1e-9)) "order realizes it" 1.2
    (Offline_optimal.profit_of_order ~now:0.0 (table7 ()) order);
  (* q0 (the long query) must go last in any optimal order here. *)
  check_int "q0 last" 0 order.(2)

let test_optimal_empty_and_single () =
  let opt, order = Offline_optimal.solve ~now:0.0 [||] in
  Alcotest.(check (float 1e-9)) "empty" 0.0 opt;
  check_int "empty order" 0 (Array.length order);
  let q = mk ~sla:(sla ~bound:5.0 ~gain:3.0 ()) 0 0.0 2.0 in
  let opt1, order1 = Offline_optimal.solve ~now:0.0 [| q |] in
  Alcotest.(check (float 1e-9)) "single" 3.0 opt1;
  check_int "single order" 0 order1.(0)

let test_optimal_cap () =
  let qs = Array.init 23 (fun id -> mk id 0.0 1.0) in
  check_bool "cap enforced" true
    (match Offline_optimal.solve ~now:0.0 qs with
    | exception Invalid_argument _ -> true
    | _ -> false)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let gen_micro_instance =
  QCheck.Gen.(
    let* n = 2 -- 6 in
    let* specs =
      list_repeat n
        (triple (float_range 0.5 10.0) (float_range 1.0 40.0) (float_range 0.5 5.0))
    in
    return
      (Array.of_list
         (List.mapi
            (fun id (size, bound, gain) ->
              Query.make ~id ~arrival:0.0 ~size
                ~sla:(Sla.single_step ~bound ~gain) ())
            specs)))

let arb_micro =
  QCheck.make
    ~print:(fun qs -> Fmt.str "%a" Fmt.(array ~sep:sp Query.pp) qs)
    gen_micro_instance

let prop_dp_matches_brute_force =
  QCheck.Test.make ~name:"subset DP == exhaustive permutation max" ~count:100
    arb_micro
    (fun qs ->
      let n = Array.length qs in
      let optimal, _ = Offline_optimal.solve ~now:0.0 qs in
      let brute =
        permutations (List.init n Fun.id)
        |> List.map (fun p ->
               Offline_optimal.profit_of_order ~now:0.0 qs (Array.of_list p))
        |> List.fold_left Float.max neg_infinity
      in
      Float.abs (optimal -. brute) < 1e-9)

let prop_greedy_bounded_by_optimal =
  QCheck.Test.make ~name:"fcfs <= greedy-ish bounds <= optimal" ~count:100
    arb_micro
    (fun qs ->
      let n = Array.length qs in
      let optimal, _ = Offline_optimal.solve ~now:0.0 qs in
      let greedy = Offline_optimal.greedy_profit ~now:0.0 qs in
      let fcfs = Offline_optimal.profit_of_order ~now:0.0 qs (Array.init n Fun.id) in
      greedy <= optimal +. 1e-9 && fcfs <= optimal +. 1e-9
      (* Sec 8.2's induction claim: greedy never loses to the original
         order. *)
      && greedy >= fcfs -. 1e-9)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sched"
    [
      ( "planners",
        [
          Alcotest.test_case "fcfs" `Quick test_fcfs_plan;
          Alcotest.test_case "sjf" `Quick test_sjf_plan;
          Alcotest.test_case "sjf stability" `Quick test_sjf_stability;
          Alcotest.test_case "edf" `Quick test_edf_plan;
          Alcotest.test_case "value-edf" `Quick test_value_edf_plan;
          Alcotest.test_case "value-edf stability" `Quick test_value_edf_stability;
          Alcotest.test_case "planned_queries" `Quick test_planned_queries;
        ] );
      ( "cbs",
        [
          Alcotest.test_case "urgency raises priority" `Quick test_cbs_priority_urgency;
          Alcotest.test_case "cheap work first" `Quick test_cbs_priority_cheap_work;
          Alcotest.test_case "plan sorted by priority" `Quick
            test_cbs_plan_orders_by_priority;
          Alcotest.test_case "invalid rate" `Quick test_cbs_invalid_rate;
        ] );
      ( "insertion-rank",
        [
          Alcotest.test_case "fcfs appends" `Quick test_insertion_rank_fcfs_appends;
          Alcotest.test_case "sjf slots" `Quick test_insertion_rank_sjf;
          Alcotest.test_case "bounds" `Quick test_insertion_rank_bounds;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "of_planner picks head" `Quick test_of_planner_picks_head;
          Alcotest.test_case "names" `Quick test_scheduler_names;
          Alcotest.test_case "rushes urgent query" `Quick
            test_sla_tree_scheduler_rushes_urgent;
          Alcotest.test_case "keeps order when no gain" `Quick
            test_sla_tree_scheduler_keeps_order_when_no_gain;
          Alcotest.test_case "maps back through planner" `Quick
            test_sla_tree_over_cbs_maps_back;
          qtest prop_pick_in_range;
          qtest prop_best_rush_planned_matches_unpruned;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "fifo cycle" `Quick test_frontend_fifo_cycle;
          Alcotest.test_case "rushes urgent" `Quick test_frontend_rushes_urgent;
          Alcotest.test_case "what-if tree" `Quick test_frontend_what_if_tree;
          Alcotest.test_case "matches simulator" `Slow
            test_frontend_matches_sim_scheduler;
        ] );
      ( "offline-optimal",
        [
          Alcotest.test_case "Table 7 optimum" `Quick test_optimal_on_table7;
          Alcotest.test_case "empty and single" `Quick test_optimal_empty_and_single;
          Alcotest.test_case "size cap" `Quick test_optimal_cap;
          qtest prop_dp_matches_brute_force;
          qtest prop_greedy_bounded_by_optimal;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "SLA-tree improves FCFS" `Slow
            test_sla_tree_improves_fcfs_end_to_end;
          Alcotest.test_case "SLA-tree improves CBS" `Slow
            test_sla_tree_improves_cbs_end_to_end;
        ] );
    ]
