(* Prints, as exact hexadecimal floats, every number the decision-stack
   golden outputs render rounded: Table 4's estimate and ground truth
   and the dispatch, admission and heterogeneous-farm ablation cells at
   smoke scale; each elastic comparison row and each resilience row at
   default scale; then the drop, fairness, predictor and optimality
   ablations and the validation rows at smoke scale. One cell or row
   per line. The scheduling ablation's smoke cells come first: the only
   rows that run SJF, EDF and Value-EDF, with and without the
   SLA-tree. *)

let () =
  let smoke = Exp_scale.smoke and default = Exp_scale.default in
  List.iter
    (fun (c : Ablations.sched_cell) ->
      Printf.printf "ablation_sched %s %s base %h tree %h\n" c.base_name
        (Workloads.kind_name c.kind) c.base_loss c.tree_loss)
    (Ablations.sched_compute smoke);
  List.iter
    (fun (c : Table4.cell) ->
      Printf.printf "table4 %s %d ground_truth %h estimate %h\n"
        (Workloads.kind_name c.kind) c.servers c.ground_truth c.estimate)
    (Table4.compute smoke);
  List.iter
    (fun (c : Ablations.disp_cell) ->
      Printf.printf "ablation_dispatch %s %s %h\n" c.disp_name
        (Workloads.kind_name c.kind) c.loss)
    (Ablations.disp_compute smoke);
  List.iter
    (fun (c : Ablations.admission_cell) ->
      Printf.printf
        "ablation_admission %g %b avg_loss %h avg_profit %h rejected %d\n"
        c.load c.admission c.avg_loss c.avg_profit c.rejected)
    (Ablations.admission_compute smoke);
  List.iter
    (fun (c : Ablations.hetero_cell) ->
      Printf.printf "ablation_hetero %s %h\n" c.h_disp c.h_loss)
    (Ablations.hetero_compute smoke);
  List.iter
    (fun shape ->
      List.iter
        (fun (r : Exp_elastic.row) ->
          Printf.printf
            "elastic %s %s profit %h server_time %h cost %h net %h avg_loss %h \
             late %h\n"
            (Exp_elastic.shape_name shape) r.label r.profit r.server_time r.cost
            r.net r.avg_loss r.late)
        (Exp_elastic.rows ~shape ~scale:default
           ~seed:default.Exp_scale.base_seed ()))
    Exp_elastic.all_shapes;
  List.iter
    (fun (r : Exp_resilience.row) ->
      Printf.printf "resilience %s %s %s profit %h drop %h avg_loss %h late %h\n"
        r.pool r.dispatcher r.plan r.profit r.drop r.avg_loss r.late)
    (Exp_resilience.rows ~scale:default ());
  List.iter
    (fun (c : Ablations.drop_cell) ->
      Printf.printf "ablation_drop %g %b avg_profit %h dropped %d\n" c.d_load
        c.d_drop c.d_avg_profit c.d_dropped)
    (Ablations.drop_compute smoke);
  List.iter
    (fun (c : Ablations.fairness_cell) ->
      Printf.printf "ablation_fairness %s %s n %d loss %h late_pct %h\n"
        c.scheduler c.label c.n c.class_loss c.class_late_pct)
    (Ablations.fairness_compute smoke);
  List.iter
    (fun (c : Ablations.predictor_cell) ->
      Printf.printf "ablation_predictor %s mape %h cbs %h tree %h\n" c.estimates
        c.mape c.cbs_loss c.tree_loss)
    (Ablations.predictor_compute smoke);
  List.iter
    (fun (c : Ablations.optimality_cell) ->
      Printf.printf
        "ablation_optimality %d instances %d greedy %h worst %h fcfs %h \
         greedy_optimal_pct %h\n"
        c.n_queries c.instances c.mean_greedy_ratio c.worst_greedy_ratio
        c.mean_fcfs_ratio c.greedy_optimal_pct)
    (Ablations.optimality_compute ~seed:smoke.Exp_scale.base_seed ());
  List.iter
    (fun (r : Validation.row) ->
      Printf.printf "validation %d %g simulated %h analytic %h\n" r.servers
        r.load r.simulated r.analytic)
    (Validation.compute smoke)
