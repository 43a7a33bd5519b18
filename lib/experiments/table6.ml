(* Table 6 (Sec 7.5): robustness of dispatching to estimation error —
   the three dispatching rows of Table 3 on 5 servers at load 0.9,
   sigma^2 in {0, 0.2, 1.0}. *)

let default_sigmas = [ 0.0; 0.2; 1.0 ]
let load = 0.9
let servers = 5

let dispatchers =
  [ Exp_common.Lwl_cbs; Exp_common.Lwl_tree_sched; Exp_common.Tree_tree ]

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  sigma2 : float;
  disp : Exp_common.disp_kind;
  avg_loss : float;
}

let compute ?profiles ?kinds ?(sigmas = default_sigmas) (scale : Exp_scale.t) =
  Exp_common.grid ?profiles ?kinds ~cols:sigmas ~rows:dispatchers
    (fun profile kind sigma2 disp ->
      let dispatcher, scheduler = Exp_common.dispatch_setup disp kind in
      let loss ~seed =
        Trace.generate
          (Trace.config ~error:(Table5.error_of sigma2) ~kind ~profile ~load
             ~servers ~n_queries:scale.n_queries ~seed ())
        |> Exp_common.run ~n_servers:servers ~scheduler ~dispatcher
             ~warmup:scale.warmup
        |> Metrics.avg_loss
      in
      let avg_loss = Exp_common.(mean (repeats scale loss)) in
      { profile; kind; sigma2; disp; avg_loss })

let to_report ?(sigmas = default_sigmas) cells =
  Exp_common.grid_report
    ~title:
      "Table 6: dispatching robustness vs estimation error (5 servers; \
       columns are sigma^2)"
    ~cols:sigmas ~col_name:(Printf.sprintf "%.1f") ~rows:dispatchers
    ~row_name:Exp_common.disp_name
    (List.map (fun c -> ((c.profile, c.kind, c.sigma2, c.disp), c.avg_loss)) cells)

let run ppf scale =
  let cells = compute scale in
  Report.render ppf (to_report cells)
