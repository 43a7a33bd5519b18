(* Ablation studies beyond the paper's tables. Each isolates one
   design choice DESIGN.md calls out:

   - scheduling: does the SLA-tree enhancement help *any* baseline
     order, not just FCFS and CBS? (Sec 6.1 claims it makes
     "SLA-unaware baseline policies become SLA-aware".)
   - dispatching: the full baseline ladder (Random, RR, SITA, LWL)
     against profit-aware dispatch.
   - admission control: the "or should we simply reject" option of
     Sec 1, exercised at overload.
   - learned estimates: Sec 7.5's robustness with a real predictor
     (kNN per Sec 2.3) instead of parametric Gaussian noise. *)

(* ------------------------------------------------------------------ *)
(* Scheduling ablation: every baseline order, with and without the
   SLA-tree re-ranking, SLA-B at load 0.9. *)

let sched_rows kind =
  let rate = Exp_common.cbs_rate kind in
  [
    ("FCFS", Schedulers.fcfs, Schedulers.fcfs_sla_tree);
    ("SJF", Schedulers.sjf, Schedulers.sjf_sla_tree);
    ("EDF", Schedulers.edf, Schedulers.edf_sla_tree);
    ("Value-EDF", Schedulers.value_edf, Schedulers.value_edf_sla_tree);
    ("CBS", Schedulers.cbs ~rate, Schedulers.cbs_sla_tree ~rate);
  ]

type sched_cell = {
  base_name : string;
  kind : Workloads.kind;
  base_loss : float;
  tree_loss : float;
}

let sched_compute ?(kinds = Workloads.all_kinds) (scale : Exp_scale.t) =
  (* Independent (kind, baseline) cells fan out across the ambient
     pool in spec order. *)
  List.concat_map
    (fun kind -> List.map (fun row -> (kind, row)) (sched_rows kind))
    kinds
  |> Parallel.map_list (fun (kind, (base_name, base, tree)) ->
         let loss scheduler ~seed =
           Trace.generate
             (Trace.config ~kind ~profile:Workloads.Sla_b ~load:0.9 ~servers:1
                ~n_queries:scale.n_queries ~seed ())
           |> Exp_common.run ~n_servers:1 ~scheduler
                ~dispatcher:Dispatchers.round_robin ~warmup:scale.warmup
           |> Metrics.avg_loss
         in
         let loss scheduler = Exp_common.(mean (repeats scale (loss scheduler))) in
         { base_name; kind; base_loss = loss base; tree_loss = loss tree })

let sched_run ppf scale =
  let cells = sched_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: SLA-tree enhancement across baseline schedulers (SLA-B, \
     load 0.9) ===@.";
  Fmt.pf ppf "%-12s %10s %12s %14s %10s@." "baseline" "workload" "baseline" "+SLA-tree"
    "change";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-12s %10s %12.3f %14.3f %9.1f%%@." c.base_name
        (Workloads.kind_name c.kind) c.base_loss c.tree_loss
        (100.0 *. (c.tree_loss -. c.base_loss) /. Float.max c.base_loss 1e-9))
    cells

(* ------------------------------------------------------------------ *)
(* Dispatching ablation: the whole baseline ladder at 5 servers,
   SLA-A, load 0.9, CBS+SLA-tree scheduling everywhere. *)

type disp_cell = { disp_name : string; kind : Workloads.kind; loss : float }

let disp_compute ?(kinds = [ Workloads.Exp; Workloads.Pareto ]) ?(servers = 5)
    (scale : Exp_scale.t) =
  (* Independent (kind, dispatcher) cells fan out across the ambient
     pool in spec order. *)
  List.concat_map
    (fun kind ->
      let rate = Exp_common.cbs_rate kind in
      let planner = Planner.cbs ~rate in
      List.map
        (fun dispatcher -> (kind, rate, dispatcher))
        [
          Dispatchers.random ~seed:9;
          Dispatchers.round_robin;
          Sita.for_workload ~seed:11 kind ~classes:servers;
          Dispatchers.lwl;
          Dispatchers.sla_tree planner;
        ])
    kinds
  |> Parallel.map_list (fun (kind, rate, dispatcher) ->
         let scheduler = Schedulers.cbs_sla_tree ~rate in
         let loss ~seed =
           Trace.generate
             (Trace.config ~kind ~profile:Workloads.Sla_a ~load:0.9 ~servers
                ~n_queries:scale.n_queries ~seed ())
           |> Exp_common.run ~n_servers:servers ~scheduler ~dispatcher
                ~warmup:scale.warmup
           |> Metrics.avg_loss
         in
         let loss = Exp_common.(mean (repeats scale loss)) in
         { disp_name = Dispatchers.name dispatcher; kind; loss })

let disp_run ppf scale =
  let cells = disp_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: dispatching baseline ladder (SLA-A, load 0.9, 5 servers) \
     ===@.";
  Fmt.pf ppf "%-10s %10s %10s@." "dispatcher" "workload" "avg loss";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-10s %10s %10.3f@." c.disp_name (Workloads.kind_name c.kind)
        c.loss)
    cells

(* ------------------------------------------------------------------ *)
(* Admission control at overload: accepting everything vs rejecting
   queries whose best insertion delta is negative. *)

type admission_cell = {
  load : float;
  admission : bool;
  avg_loss : float;
  avg_profit : float;
  rejected : int;
}

let admission_compute ?(loads = [ 0.9; 1.1; 1.4 ]) (scale : Exp_scale.t) =
  let kind = Workloads.Exp in
  let rate = Exp_common.cbs_rate kind in
  let scheduler = Schedulers.cbs_sla_tree ~rate in
  let planner = Planner.cbs ~rate in
  (* Independent (load, admission) cells fan out across the ambient
     pool. *)
  Exp_common.product loads [ false; true ]
  |> Parallel.map_list (fun (load, admission) ->
         let runs =
           Exp_common.repeats scale (fun ~seed ->
               Trace.generate
                 (Trace.config ~kind ~profile:Workloads.Sla_b ~load ~servers:2
                    ~n_queries:scale.n_queries ~seed ())
               |> Exp_common.run ~n_servers:2 ~scheduler
                    ~dispatcher:(Dispatchers.sla_tree ~admission planner)
                    ~warmup:scale.warmup)
         in
         let mean f = Exp_common.mean (Array.map f runs) in
         {
           load;
           admission;
           avg_loss = mean Metrics.avg_loss;
           avg_profit = mean Metrics.avg_profit;
           rejected =
             Array.fold_left (fun n m -> n + Metrics.rejected_count m) 0 runs
             / scale.repeats;
         })

let admission_run ppf scale =
  let cells = admission_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: admission control at overload (SLA-B, Exp, 2 servers) ===@.";
  Fmt.pf ppf "%6s %12s %10s %12s %10s@." "load" "admission" "avg loss" "avg profit"
    "rejected";
  List.iter
    (fun c ->
      Fmt.pf ppf "%6.1f %12s %10.3f %12.3f %10d@." c.load
        (if c.admission then "reject<0" else "accept all")
        c.avg_loss c.avg_profit c.rejected)
    cells

(* ------------------------------------------------------------------ *)
(* Learned estimates: replace Sec 7.5's parametric noise with a kNN
   predictor trained on observed plan executions. *)

type predictor_cell = {
  estimates : string;
  cbs_loss : float;
  tree_loss : float;
  mape : float;
}

let predictor_compute (scale : Exp_scale.t) =
  let predictor = Cost_predictor.train ~seed:scale.base_seed () in
  let mape = Cost_predictor.evaluate predictor ~seed:(scale.base_seed + 1) in
  let run ~perfect =
    (* The trained predictor is only read from here, so repeats fan
       out across the ambient pool. *)
    let pairs =
      Exp_common.repeats scale (fun ~seed ->
          let queries =
            Cost_predictor.generate_trace predictor ~profile:Workloads.Sla_b
              ~load:0.9 ~servers:1 ~n_queries:scale.n_queries ~seed
          in
          let queries =
            if perfect then
              Array.map
                (fun q ->
                  Query.make ~id:q.Query.id ~arrival:q.Query.arrival
                    ~size:q.Query.size ~est_size:q.Query.size ~sla:q.Query.sla
                    ~tenant:q.Query.tenant ())
                queries
            else queries
          in
          let mean =
            Array.fold_left (fun acc q -> acc +. q.Query.est_size) 0.0 queries
            /. Float.of_int (Array.length queries)
          in
          let rate = 1.0 /. mean in
          let loss scheduler =
            Metrics.avg_loss
              (Exp_common.run ~n_servers:1 ~scheduler
                 ~dispatcher:Dispatchers.round_robin ~warmup:scale.warmup
                 queries)
          in
          (loss (Schedulers.cbs ~rate), loss (Schedulers.cbs_sla_tree ~rate)))
    in
    Exp_common.(mean (Array.map fst pairs), mean (Array.map snd pairs))
  in
  let p_cbs, p_tree = run ~perfect:true in
  let k_cbs, k_tree = run ~perfect:false in
  [
    { estimates = "perfect"; cbs_loss = p_cbs; tree_loss = p_tree; mape = 0.0 };
    { estimates = "kNN"; cbs_loss = k_cbs; tree_loss = k_tree; mape };
  ]

let predictor_run ppf scale =
  let cells = predictor_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: learned execution-time estimates (kNN, Sec 2.3) vs \
     perfect (SLA-B, load 0.9) ===@.";
  Fmt.pf ppf "%-10s %10s %10s %14s@." "estimates" "MAPE %" "CBS" "CBS+SLA-tree";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-10s %10.1f %10.3f %14.3f@." c.estimates c.mape c.cbs_loss
        c.tree_loss)
    cells

(* ------------------------------------------------------------------ *)
(* Per-class differentiation (Gupta et al., Sec 2.3): under SLA-B, who
   gains when the SLA-tree re-ranks the buffer — buyers, employees, or
   both? *)

type fairness_cell = {
  scheduler : string;
  label : string;  (** "buyer" or "employee" *)
  class_loss : float;
  class_late_pct : float;
  n : int;
}

let classify_sla_b ~mu =
  let employee = Sla_profiles.sla_b_employee ~mu in
  fun q -> if Sla.equal q.Query.sla employee then "employee" else "buyer"

let fairness_compute (scale : Exp_scale.t) =
  let kind = Workloads.Exp in
  let mu = Workloads.nominal_mean_ms kind in
  let rate = Exp_common.cbs_rate kind in
  let schedulers =
    [ Schedulers.fcfs; Schedulers.fcfs_sla_tree; Schedulers.cbs_sla_tree ~rate ]
  in
  (* Scheduler cells fan out (each worker owns its Breakdown); the
     repeats stay serial within a cell because the Breakdown
     accumulates across them in repeat order. *)
  Parallel.map_list
    (fun scheduler ->
      let breakdown =
        Breakdown.create ~classify:(classify_sla_b ~mu) ~warmup_id:scale.warmup
      in
      for repeat = 0 to scale.repeats - 1 do
        Trace.generate
          (Trace.config ~kind ~profile:Workloads.Sla_b ~load:0.9 ~servers:1
             ~n_queries:scale.n_queries
             ~seed:(Exp_scale.seed scale ~repeat)
             ())
        |> Exp_common.run
             ~on_complete:(Breakdown.record breakdown)
             ~n_servers:1 ~scheduler ~dispatcher:Dispatchers.round_robin
             ~warmup:scale.warmup
        |> ignore
      done;
      List.map
        (fun c ->
          let n = Stats.count c.Breakdown.loss in
          {
            scheduler = Schedulers.name scheduler;
            label = c.Breakdown.label;
            class_loss = Stats.mean c.Breakdown.loss;
            class_late_pct =
              (if n = 0 then Float.nan
               else 100.0 *. Float.of_int c.Breakdown.late /. Float.of_int n);
            n;
          })
        (Breakdown.classes breakdown))
    schedulers
  |> List.concat

let fairness_run ppf scale =
  let cells = fairness_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: per-class outcomes under SLA-B (Exp, load 0.9) ===@.";
  Fmt.pf ppf "%-16s %-10s %8s %12s %12s@." "scheduler" "class" "n" "avg loss"
    "late %";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-16s %-10s %8d %12.3f %12.1f@." c.scheduler c.label c.n
        c.class_loss c.class_late_pct)
    cells

(* ------------------------------------------------------------------ *)
(* Heterogeneous servers: Sec 6.2 claims SLA-tree dispatching handles
   servers of different processing power because each server evaluates
   the what-if with its own execution times. A 4-server farm with
   speeds 2x/1x/1x/0.5x. *)

type hetero_cell = { h_disp : string; h_loss : float }

let hetero_speeds = [| 2.0; 1.0; 1.0; 0.5 |]

let hetero_compute (scale : Exp_scale.t) =
  let kind = Workloads.Exp in
  let rate = Exp_common.cbs_rate kind in
  let scheduler = Schedulers.cbs_sla_tree ~rate in
  let planner = Planner.cbs ~rate in
  let n_servers = Array.length hetero_speeds in
  (* Dispatcher cells fan out across the ambient pool. *)
  Parallel.map_list
    (fun dispatcher ->
      let loss ~seed =
        Trace.generate
          (Trace.config ~kind ~profile:Workloads.Sla_a ~load:0.9
             ~servers:n_servers ~n_queries:scale.n_queries ~seed ())
        |> Exp_common.run ~speeds:hetero_speeds ~n_servers ~scheduler
             ~dispatcher ~warmup:scale.warmup
        |> Metrics.avg_loss
      in
      {
        h_disp = Dispatchers.name dispatcher;
        h_loss = Exp_common.(mean (repeats scale loss));
      })
    [ Dispatchers.round_robin; Dispatchers.lwl; Dispatchers.sla_tree planner ]

let hetero_run ppf scale =
  let cells = hetero_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: heterogeneous farm, speeds 2x/1x/1x/0.5x (SLA-A, Exp, \
     load 0.9) ===@.";
  Fmt.pf ppf "%-10s %10s@." "dispatcher" "avg loss";
  List.iter (fun c -> Fmt.pf ppf "%-10s %10.3f@." c.h_disp c.h_loss) cells

(* ------------------------------------------------------------------ *)
(* Dropping hopeless queries (footnote 2): the paper keeps queries
   whose penalty is already sunk; the alternative abandons them at
   scheduling points, freeing server time for queries that can still
   earn. *)

type drop_cell = {
  d_load : float;
  d_drop : bool;
  d_avg_profit : float;
  d_dropped : int;
}

let drop_compute (scale : Exp_scale.t) =
  let kind = Workloads.Exp in
  let rate = Exp_common.cbs_rate kind in
  let scheduler = Schedulers.cbs_sla_tree ~rate in
  (* Independent (load, drop) cells fan out across the ambient pool. *)
  Exp_common.product [ 0.9; 1.1; 1.4 ] [ false; true ]
  |> Parallel.map_list (fun (load, drop) ->
         let drop_policy =
           if drop then Some Sim.drop_past_last_deadline else None
         in
         let runs =
           Exp_common.repeats scale (fun ~seed ->
               Trace.generate
                 (Trace.config ~kind ~profile:Workloads.Sla_b ~load ~servers:1
                    ~n_queries:scale.n_queries ~seed ())
               |> Exp_common.run ?drop_policy ~n_servers:1 ~scheduler
                    ~dispatcher:Dispatchers.round_robin ~warmup:scale.warmup)
         in
         {
           d_load = load;
           d_drop = drop;
           d_avg_profit = Exp_common.mean (Array.map Metrics.avg_profit runs);
           d_dropped =
             Array.fold_left (fun n m -> n + Metrics.dropped_count m) 0 runs
             / scale.repeats;
         })

let drop_run ppf scale =
  let cells = drop_compute scale in
  Fmt.pf ppf
    "@.=== Ablation: dropping hopeless queries (footnote 2) vs keeping them \
     (SLA-B, Exp, 1 server) ===@.";
  Fmt.pf ppf "%6s %12s %12s %10s@." "load" "policy" "avg profit" "dropped";
  List.iter
    (fun c ->
      Fmt.pf ppf "%6.1f %12s %12.3f %10d@." c.d_load
        (if c.d_drop then "drop sunk" else "keep all")
        c.d_avg_profit c.d_dropped)
    cells

(* ------------------------------------------------------------------ *)
(* Optimality gap (Sec 8.2): SLA-tree scheduling is greedy and not
   globally optimal; on instances small enough for the exact subset-DP
   solver, measure how much is actually left on the table. *)

type optimality_cell = {
  n_queries : int;
  instances : int;
  mean_greedy_ratio : float;  (** greedy profit / optimal profit *)
  worst_greedy_ratio : float;
  mean_fcfs_ratio : float;  (** arrival-order profit / optimal *)
  greedy_optimal_pct : float;  (** instances where greedy hits the optimum *)
}

let random_instance rng n =
  (* A congested micro-buffer: everything arrived already, deadlines
     tight enough that ordering matters. *)
  Array.init n (fun id ->
      let size = 1.0 +. (Prng.float rng *. 19.0) in
      let gain = 0.5 +. (Prng.float rng *. 4.5) in
      let bound = 5.0 +. (Prng.float rng *. 120.0) in
      let arrival = Prng.float rng *. 30.0 in
      Query.make ~id ~arrival ~size ~sla:(Sla.single_step ~bound ~gain) ())

(* 60 instances each of 8 and of 12 queries. Stays serial even under
   [-j]: both sizes draw their instances from one sequential rng, so
   fanning out would change the draws. *)
let optimality_compute ~seed () =
  let instances = 60 in
  let rng = Prng.create seed in
  List.map
    (fun n ->
      let greedy_ratios = Stats.create () in
      let fcfs_ratios = Stats.create () in
      let hits = ref 0 in
      for _ = 1 to instances do
        let qs = random_instance rng n in
        let now = 40.0 in
        let optimal, _ = Offline_optimal.solve ~now qs in
        if optimal > 1e-9 then begin
          let greedy, _ = Offline_optimal.greedy ~now qs in
          let fcfs =
            Offline_optimal.profit_of_order ~now qs (Array.init n Fun.id)
          in
          Stats.add greedy_ratios (greedy /. optimal);
          Stats.add fcfs_ratios (fcfs /. optimal);
          if greedy >= optimal -. 1e-9 then incr hits
        end
      done;
      {
        n_queries = n;
        instances;
        mean_greedy_ratio = Stats.mean greedy_ratios;
        worst_greedy_ratio = Stats.min_value greedy_ratios;
        mean_fcfs_ratio = Stats.mean fcfs_ratios;
        greedy_optimal_pct =
          100.0 *. Float.of_int !hits /. Float.of_int (Stats.count greedy_ratios);
      })
    [ 8; 12 ]

let optimality_run ppf ~seed () =
  let cells = optimality_compute ~seed () in
  Fmt.pf ppf
    "@.=== Ablation: greedy vs exact optimum on micro-instances (Sec 8.2) ===@.";
  Fmt.pf ppf "%4s %10s %14s %14s %14s %12s@." "n" "instances" "greedy/opt"
    "worst case" "arrival/opt" "greedy=opt";
  List.iter
    (fun c ->
      Fmt.pf ppf "%4d %10d %14.3f %14.3f %14.3f %11.1f%%@." c.n_queries
        c.instances c.mean_greedy_ratio c.worst_greedy_ratio c.mean_fcfs_ratio
        c.greedy_optimal_pct)
    cells
