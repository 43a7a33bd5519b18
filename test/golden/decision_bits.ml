(* Prints, as exact hexadecimal floats, every number the decision-stack
   golden outputs render rounded: Table 4's estimate and ground truth
   and the dispatch, admission and heterogeneous-farm ablation cells at
   smoke scale; each elastic comparison row and each resilience row at
   default scale. One cell or row per line. The scheduling ablation's
   smoke cells come first: the only rows that run SJF, EDF and
   Value-EDF, with and without the SLA-tree. *)

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
    (Exp_resilience.rows ~scale:default ())
