(* Table 5 (Sec 7.5): robustness of scheduling to execution-time
   estimation error — CBS vs CBS+SLA-tree at load 0.9, with the real
   execution time equal to the estimate scaled by N(1, sigma^2),
   sigma^2 in {0, 0.2, 1.0}. *)

let default_sigmas = [ 0.0; 0.2; 1.0 ]
let load = 0.9
let schedulers = [ Exp_common.Cbs; Exp_common.Cbs_tree ]

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  sigma2 : float;
  sched : Exp_common.sched_kind;
  avg_loss : float;
}

let error_of sigma2 =
  if sigma2 = 0.0 then Estimate_error.none
  else Estimate_error.gaussian ~sigma2 ()

let compute ?profiles ?kinds ?(sigmas = default_sigmas) (scale : Exp_scale.t) =
  Exp_common.grid ?profiles ?kinds ~cols:sigmas ~rows:schedulers
    (fun profile kind sigma2 sched ->
      let scheduler = Exp_common.scheduler_of sched kind in
      let loss ~seed =
        Trace.generate
          (Trace.config ~error:(error_of sigma2) ~kind ~profile ~load ~servers:1
             ~n_queries:scale.n_queries ~seed ())
        |> Exp_common.run ~n_servers:1 ~scheduler
             ~dispatcher:Dispatchers.round_robin ~warmup:scale.warmup
        |> Metrics.avg_loss
      in
      let avg_loss = Exp_common.(mean (repeats scale loss)) in
      { profile; kind; sigma2; sched; avg_loss })

let to_report ?(sigmas = default_sigmas) cells =
  Exp_common.grid_report
    ~title:
      "Table 5: scheduling robustness vs estimation error (load 0.9; columns \
       are sigma^2)"
    ~cols:sigmas ~col_name:(Printf.sprintf "%.1f") ~rows:schedulers
    ~row_name:Exp_common.sched_name
    (List.map (fun c -> ((c.profile, c.kind, c.sigma2, c.sched), c.avg_loss)) cells)

let run ppf scale =
  let cells = compute scale in
  Report.render ppf (to_report cells)
