(* Table 2 (Sec 7.2): scheduling — average profit loss per query for
   FCFS, FCFS+SLA-tree, CBS and CBS+SLA-tree on one server, across
   workloads {Exp, Pareto, SSBM}, loads {0.5, 0.7, 0.9} and SLA
   profiles {SLA-A, SLA-B}. *)

let default_loads = [ 0.5; 0.7; 0.9 ]

let schedulers =
  [ Exp_common.Fcfs; Exp_common.Fcfs_tree; Exp_common.Cbs; Exp_common.Cbs_tree ]

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  load : float;
  sched : Exp_common.sched_kind;
  avg_loss : float;
}

let compute ?profiles ?kinds ?(loads = default_loads) (scale : Exp_scale.t) =
  Exp_common.grid ?profiles ?kinds ~cols:loads ~rows:schedulers
    (fun profile kind load sched ->
      let scheduler = Exp_common.scheduler_of sched kind in
      let loss ~seed =
        Trace.generate
          (Trace.config ~kind ~profile ~load ~servers:1
             ~n_queries:scale.n_queries ~seed ())
        |> Exp_common.run ~n_servers:1 ~scheduler
             ~dispatcher:Dispatchers.round_robin ~warmup:scale.warmup
        |> Metrics.avg_loss
      in
      let avg_loss = Exp_common.(mean (repeats scale loss)) in
      { profile; kind; load; sched; avg_loss })

let to_report ?(loads = default_loads) cells =
  Exp_common.grid_report
    ~title:"Table 2: scheduling, average profit loss per query" ~cols:loads
    ~col_name:(Printf.sprintf "%.1f") ~rows:schedulers
    ~row_name:Exp_common.sched_name
    (List.map (fun c -> ((c.profile, c.kind, c.load, c.sched), c.avg_loss)) cells)

let run ppf scale =
  let cells = compute scale in
  Report.render ppf (to_report cells)
