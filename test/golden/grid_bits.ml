(* Prints every Table 2, 3, 5 and 6 cell's average loss at smoke scale
   as an exact hexadecimal float, one cell per line. The rendered
   tables round to a few digits; this file pins every bit. Runs the
   grids on SLATREE_JOBS worker domains when that is set. *)

let () =
  Parallel.setup ();
  let scale = Exp_scale.smoke in
  List.iter
    (fun (c : Table2.cell) ->
      Printf.printf "table2 %s %s %g %s %h\n"
        (Workloads.profile_name c.profile) (Workloads.kind_name c.kind) c.load
        (Exp_common.sched_name c.sched) c.avg_loss)
    (Table2.compute scale);
  List.iter
    (fun (c : Table3.cell) ->
      Printf.printf "table3 %s %s %d %s %h\n"
        (Workloads.profile_name c.profile) (Workloads.kind_name c.kind) c.servers
        (Exp_common.disp_name c.disp) c.avg_loss)
    (Table3.compute scale);
  List.iter
    (fun (c : Table5.cell) ->
      Printf.printf "table5 %s %s %g %s %h\n"
        (Workloads.profile_name c.profile) (Workloads.kind_name c.kind) c.sigma2
        (Exp_common.sched_name c.sched) c.avg_loss)
    (Table5.compute scale);
  List.iter
    (fun (c : Table6.cell) ->
      Printf.printf "table6 %s %s %g %s %h\n"
        (Workloads.profile_name c.profile) (Workloads.kind_name c.kind) c.sigma2
        (Exp_common.disp_name c.disp) c.avg_loss)
    (Table6.compute scale)
