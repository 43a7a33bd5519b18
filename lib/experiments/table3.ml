(* Table 3 (Sec 7.3): dispatching — average profit loss per query for
   LWL/CBS, LWL/CBS+SLA-tree and SLA-tree/CBS+SLA-tree across server
   counts {2, 5, 10}, workloads and SLA profiles. System load is 0.9
   (the paper's dispatching runs inherit the high-load setting). *)

let default_servers = [ 2; 5; 10 ]
let load = 0.9

let dispatchers =
  [ Exp_common.Lwl_cbs; Exp_common.Lwl_tree_sched; Exp_common.Tree_tree ]

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  servers : int;
  disp : Exp_common.disp_kind;
  avg_loss : float;
}

let compute ?profiles ?kinds ?(servers = default_servers) (scale : Exp_scale.t) =
  Exp_common.grid ?profiles ?kinds ~cols:servers ~rows:dispatchers
    (fun profile kind m disp ->
      let dispatcher, scheduler = Exp_common.dispatch_setup disp kind in
      let loss ~seed =
        Trace.generate
          (Trace.config ~kind ~profile ~load ~servers:m
             ~n_queries:scale.n_queries ~seed ())
        |> Exp_common.run ~n_servers:m ~scheduler ~dispatcher
             ~warmup:scale.warmup
        |> Metrics.avg_loss
      in
      let avg_loss = Exp_common.(mean (repeats scale loss)) in
      { profile; kind; servers = m; disp; avg_loss })

let to_report ?(servers = default_servers) cells =
  Exp_common.grid_report
    ~title:
      "Table 3: dispatching, average profit loss per query (server # columns)"
    ~cols:servers ~col_name:string_of_int ~rows:dispatchers
    ~row_name:Exp_common.disp_name
    (List.map (fun c -> ((c.profile, c.kind, c.servers, c.disp), c.avg_loss)) cells)

let run ppf scale =
  let cells = compute scale in
  Report.render ppf (to_report cells)
