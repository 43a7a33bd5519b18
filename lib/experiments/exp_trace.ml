(* Trace-driven experiments: the paper's grids over a real cluster log
   instead of a stationary generator. See exp_trace.mli.

   Everything here streams. A run is [Sim.session] + one [Sim.inject]
   per synthesized query + [Sim.drain]; by the session contract that
   is exactly [Sim.run] on the materialized array, so cells are
   comparable with every array-based experiment in the repo while
   holding only the in-flight buffers in memory. *)

type cfg = {
  path : string;
  synth : Sla_synth.config;
  tiles : int;
  max_jobs : int option;
  servers : int;
  warmup_frac : float;
}

let cfg ?(synth = Sla_synth.config ()) ?(tiles = 1) ?max_jobs ?(servers = 8)
    ?(warmup_frac = 0.1) ~path () =
  if tiles < 1 then invalid_arg "Exp_trace.cfg: tiles must be >= 1";
  if servers < 1 then invalid_arg "Exp_trace.cfg: servers must be >= 1";
  if warmup_frac < 0.0 || warmup_frac >= 1.0 then
    invalid_arg "Exp_trace.cfg: warmup_frac must be in [0, 1)";
  { path; synth; tiles; max_jobs; servers; warmup_frac }

let stream ?stats c =
  Sla_synth.stream c.synth ~tiles:c.tiles ?max_jobs:c.max_jobs ?stats
    ~path:c.path ()

let inspect c =
  let stats = Sla_synth.stats_create () in
  Seq.iter ignore (stream ~stats c);
  stats

(* Real estimation error can make a monster query's estimate tiny; the
   reservoir keeps the response sample (and so the streaming memory)
   bounded whatever the trace length. *)
let response_cap = 65_536

let warmup_id c (stats : Sla_synth.stats) =
  Float.to_int (c.warmup_frac *. Float.of_int stats.Sla_synth.kept)

(* One streamed run. [on_server_event]/[timers]/[ticker]/[on_dispatch]
   are the fault-injection and elastic attachment points; the arrival
   path itself is identical for every cell. *)
let stream_run ?on_dispatch ?on_server_event ?timers ?ticker ~c ~warmup_id
    ~n_servers ~scheduler ~dispatcher () =
  let metrics = Metrics.create ~response_cap ~warmup_id () in
  let sess =
    Sim.session ?on_dispatch ?timers ?ticker ?on_server_event ~n_servers
      ~pick_next:(Schedulers.pick scheduler)
      ~dispatch:(Dispatchers.instantiate dispatcher)
      ~metrics ()
  in
  Seq.iter (Sim.inject sess) (stream c);
  Sim.drain sess;
  metrics

(* ------------------------------------------------------------------ *)
(* The scheduling x dispatching grid *)

(* CBS's memoryless waiting-time rate: one over the trace's mean
   estimated execution time (the trace-side analogue of
   [Exp_common.cbs_rate]). *)
let cbs_rate (stats : Sla_synth.stats) =
  let mean_est =
    if stats.Sla_synth.kept = 0 then 1.0
    else stats.Sla_synth.est_work_ms /. Float.of_int stats.Sla_synth.kept
  in
  1.0 /. Float.max 1e-9 mean_est

let schedulers stats =
  let rate = cbs_rate stats in
  [
    ("FCFS", Schedulers.fcfs);
    ("FCFS+tree", Schedulers.fcfs_sla_tree);
    ("CBS", Schedulers.cbs ~rate);
    ("CBS+tree", Schedulers.cbs_sla_tree ~rate);
  ]

let dispatchers () =
  [
    ("RR", Dispatchers.round_robin);
    ("LWL", Dispatchers.lwl);
    ("SLA-tree", Dispatchers.fcfs_sla_tree ());
  ]

type cell = {
  sched : string;
  disp : string;
  avg_loss : float;
  avg_profit : float;
  late : float;
  rejected : int;
}

let grid c =
  let stats = inspect c in
  let warmup_id = warmup_id c stats in
  List.concat_map
    (fun (sname, sched) ->
      List.map (fun (dname, disp) -> (sname, sched, dname, disp)) (dispatchers ()))
    (schedulers stats)
  |> Parallel.map_list (fun (sname, scheduler, dname, dispatcher) ->
         let m =
           stream_run ~c ~warmup_id ~n_servers:c.servers ~scheduler ~dispatcher
             ()
         in
         {
           sched = sname;
           disp = dname;
           avg_loss = Metrics.avg_loss m;
           avg_profit = Metrics.avg_profit m;
           late = Metrics.late_fraction m;
           rejected = Metrics.rejected_count m;
         })

(* ------------------------------------------------------------------ *)
(* Elastic and resilience variants *)

type variant_row = {
  label : string;
  profit : float;
  v_avg_loss : float;
  v_late : float;
  lost : int;
  servers_note : string;
}

(* The autoscaler's price of a server: half the trace's potential
   profit rate per provisioned server — expensive enough that idle
   capacity hurts, cheap enough that scaling up for a burst pays.
   Derived from the pre-pass, so it adapts to whatever log is
   replayed. *)
let elastic_config c (stats : Sla_synth.stats) =
  let span = Float.max 1.0 stats.Sla_synth.span_ms in
  let interval = span /. 120.0 in
  let mean_top_gain =
    let classes = c.synth.Sla_synth.classes in
    let w = Array.fold_left (fun a cl -> a + cl.Sla_synth.weight) 0 classes in
    Array.fold_left
      (fun a cl ->
        a +. (Float.of_int cl.Sla_synth.weight *. cl.Sla_synth.gains.(0)))
      0.0 classes
    /. Float.of_int w
  in
  let profit_rate =
    mean_top_gain *. Float.of_int stats.Sla_synth.kept /. span
  in
  let cost_per_interval =
    0.5 *. profit_rate /. Float.of_int c.servers *. interval
  in
  Elastic.config ~interval ~cost_per_interval
    ~boot_delay:(interval /. 2.0)
    ~cooldown:(2.0 *. interval)
    ~min_servers:(max 1 (c.servers / 2))
    ~max_servers:(2 * c.servers) ()

(* Elastic variant: replicate [Elastic.run]'s wiring around the
   streaming session (it only accepts a materialized array). *)
let run_elastic c (stats : Sla_synth.stats) =
  let warmup_id = warmup_id c stats in
  let ecfg = elastic_config c stats in
  let ctl = Elastic.create ecfg Elastic.sla_tree_policy ~initial_servers:c.servers in
  let metrics = Metrics.create ~response_cap ~warmup_id () in
  let last_event = ref 0.0 in
  let on_server_event ~sid ~now ev =
    if now > !last_event then last_event := now;
    Elastic.on_server_event ctl ~sid ~now ev
  in
  let sess =
    Sim.session
      ~on_dispatch:(fun ~now q d -> Elastic.on_dispatch ctl ~now q d)
      ~on_server_event
      ~ticker:(ecfg.Elastic.interval, Elastic.tick ctl)
      ~n_servers:c.servers
      ~pick_next:(Schedulers.pick Schedulers.fcfs_sla_tree)
      ~dispatch:(Dispatchers.instantiate (Dispatchers.fcfs_sla_tree ()))
      ~metrics ()
  in
  Seq.iter (Sim.inject sess) (stream c);
  Sim.drain sess;
  Elastic.finalize ctl ~now:!last_event;
  let s = Elastic.summary ctl in
  {
    label = "autoscale";
    profit = Metrics.total_profit metrics;
    v_avg_loss = Metrics.avg_loss metrics;
    v_late = Metrics.late_fraction metrics;
    lost = 0;
    servers_note =
      Printf.sprintf "pool %d..%d, %d up/%d down, net $%.0f"
        s.Elastic.min_pool s.Elastic.peak_pool s.Elastic.scale_ups
        s.Elastic.scale_downs
        (Metrics.total_profit metrics -. s.Elastic.cost);
  }

(* Resilience variants: the SLA-tree stack under a seeded storm, crash
   retries keeping their original SLA clock (the Exp_resilience
   protocol, streamed). *)
let run_storm c (stats : Sla_synth.stats) ~spec =
  let warmup_id = warmup_id c stats in
  let horizon = Float.max 1.0 stats.Sla_synth.span_ms in
  let plan = Fault.plan_of_spec spec ~horizon ~n_servers:c.servers in
  let injector = Fault.create ~plan () in
  let metrics =
    stream_run
      ~on_server_event:(Fault.on_server_event injector)
      ~timers:(Fault.timers injector)
      ~c ~warmup_id ~n_servers:c.servers
      ~scheduler:Schedulers.fcfs_sla_tree
      ~dispatcher:(Dispatchers.fcfs_sla_tree ())
      ()
  in
  Fault.finalize injector metrics;
  let fs = Fault.stats injector in
  {
    label = "storm " ^ spec;
    profit = Metrics.total_profit metrics;
    v_avg_loss = Metrics.avg_loss metrics;
    v_late = Metrics.late_fraction metrics;
    lost = Metrics.lost_count metrics;
    servers_note =
      Printf.sprintf "%d crashes, %d degrades, %d retries" fs.Fault.crashes
        fs.Fault.degrades fs.Fault.retries;
  }

let variants c =
  let stats = inspect c in
  Parallel.map_list
    (fun f -> f ())
    [
      (fun () -> run_elastic c stats);
      (fun () -> run_storm c stats ~spec:"moderate:11");
      (fun () -> run_storm c stats ~spec:"severe:11");
    ]

(* ------------------------------------------------------------------ *)
(* Report. No wall-clock anywhere: the output is part of the [-j N]
   determinism contract (CI cmp's serial vs parallel). *)

(* [run]'s [?variants] label shadows the function. *)
let variant_rows = variants

let run ?(variants = true) ppf c =
  let stats = inspect c in
  Fmt.pf ppf "@.=== Trace-driven grid: %s%s ===@." c.path
    (if c.tiles > 1 then Printf.sprintf " x %d tiles" c.tiles else "");
  Fmt.pf ppf "%a@." Sla_synth.pp_stats stats;
  Fmt.pf ppf
    "synthesis: time-scale %g, load-factor %g, seed %d; %d server(s) -> \
     implied load %.2f; warm-up %d; CBS rate %.3g@."
    c.synth.Sla_synth.time_scale c.synth.Sla_synth.load_factor
    c.synth.Sla_synth.seed c.servers
    (Sla_synth.implied_load stats ~servers:c.servers)
    (warmup_id c stats) (cbs_rate stats);
  let cells = grid c in
  Fmt.pf ppf "@.avg profit loss per query (late%% in parens):@.";
  Fmt.pf ppf "%-11s" "";
  List.iter (fun (d, _) -> Fmt.pf ppf " %16s" d) (dispatchers ());
  Fmt.pf ppf "@.";
  List.iter
    (fun (sname, _) ->
      Fmt.pf ppf "%-11s" sname;
      List.iter
        (fun (dname, _) ->
          match
            List.find_opt (fun x -> x.sched = sname && x.disp = dname) cells
          with
          | Some x -> Fmt.pf ppf " %8.4f (%4.1f%%)" x.avg_loss (100.0 *. x.late)
          | None -> Fmt.pf ppf " %16s" "-")
        (dispatchers ());
      Fmt.pf ppf "@.")
    (schedulers stats);
  if variants then begin
    let rows = variant_rows c in
    Fmt.pf ppf "@.variants (FCFS+tree / SLA-tree dispatch):@.";
    List.iter
      (fun r ->
        Fmt.pf ppf
          "%-18s profit $%10.0f  avg-loss %8.4f  late %5.1f%%  lost %4d  %s@."
          r.label r.profit r.v_avg_loss (100.0 *. r.v_late) r.lost
          r.servers_note)
      rows
  end
