(* Table 4 (Sec 7.4): capacity planning — the per-query profit margin
   of adding one server: replayed ground truth vs the SLA-tree online
   estimate, for n = 2..10 servers, SLA-A, load 0.9. *)

let default_servers = [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
let load = 0.9

type cell = {
  kind : Workloads.kind;
  servers : int;
  ground_truth : float;
  estimate : float;
}

let compute ?(kinds = Workloads.all_kinds) ?(servers = default_servers)
    (scale : Exp_scale.t) =
  (* Cells fan out across the ambient pool, and within a cell the
     repeats too when a pool is free (both levels degrade to serial
     under nesting); each mean folds in repeat order. *)
  Exp_common.product kinds servers
  |> Parallel.map_list (fun (kind, m) ->
         let rate = Exp_common.cbs_rate kind in
         let planner = Planner.cbs ~rate in
         let scheduler = Schedulers.cbs_sla_tree ~rate in
         let pairs =
           Exp_common.repeats scale (fun ~seed ->
               let queries =
                 Trace.generate
                   (Trace.config ~kind ~profile:Workloads.Sla_a ~load
                      ~servers:m ~n_queries:scale.n_queries ~seed ())
               in
               let _, e =
                 Capacity.run_with_estimation ~queries ~n_servers:m ~planner
                   ~scheduler ~warmup_id:scale.warmup
               in
               ( e.Capacity.est_margin_per_query,
                 Capacity.ground_truth ~queries ~n_servers:m ~planner
                   ~scheduler ~warmup_id:scale.warmup ))
         in
         {
           kind;
           servers = m;
           ground_truth = Exp_common.mean (Array.map snd pairs);
           estimate = Exp_common.mean (Array.map fst pairs);
         })

let to_report ?(servers = default_servers) cells =
  let col_groups = [ ("Server #", List.map string_of_int servers) ] in
  let rows =
    List.concat_map
      (fun kind ->
        let pick f =
          Array.of_list
            (List.map
               (fun m ->
                 match
                   List.find_opt (fun c -> c.kind = kind && c.servers = m) cells
                 with
                 | Some c -> f c
                 | None -> Float.nan)
               servers)
        in
        [
          (Workloads.kind_name kind ^ " ground truth", pick (fun c -> c.ground_truth));
          (Workloads.kind_name kind ^ " SLA-tree est.", pick (fun c -> c.estimate));
        ])
      Workloads.all_kinds
    |> List.filter (fun (_, arr) -> Array.exists (fun v -> not (Float.is_nan v)) arr)
  in
  {
    Report.title =
      "Table 4: capacity planning, profit margin of one extra server (SLA-A, load 0.9)";
    col_groups;
    rows;
  }

let run ppf scale =
  let cells = compute scale in
  Report.render ppf (to_report cells)
