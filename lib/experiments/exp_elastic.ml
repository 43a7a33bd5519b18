(* Elasticity experiment (beyond the paper, toward Kllapi et al. /
   WiSeDB): a cyclic workload whose troughs waste a big static farm
   and whose peaks drown a small one, served by (a) static-small,
   (b) static-large, (c) the reactive SLA-tree autoscaler, (d) the
   queue-length threshold baseline, (e) the predictive autoscaler
   (forecast-ahead scaling that hides boot delay), and (f) the offline
   oracle (perfect-foresight pool schedule, best over a utilization
   sweep) — all under the same $/server-interval cost model, reporting
   profit, server time, cost, and net = profit − cost.

   The workload is calibrated around [base_servers]: the duration-
   weighted mean load lands on that pool, the peak overloads it and
   the trough leaves it mostly idle, so neither static extreme can win
   on net. Three arrival shapes share that calibration: the smooth
   diurnal cycle, an on/off square wave (the hardest case for a
   reactive controller: the edge gives no warning), and a steady
   control at the same mean (where prediction can win nothing). *)

type shape = Steady | Diurnal | Square

let shape_name = function
  | Steady -> "steady"
  | Diurnal -> "diurnal"
  | Square -> "square"

let all_shapes = [ Diurnal; Square; Steady ]

type row = {
  label : string;
  initial : int;
  profit : float;  (** total measured profit, $ *)
  server_time : float;  (** ms*servers *)
  cost : float;
  net : float;  (** profit - cost *)
  peak : int;
  low : int;
  ups : int;
  downs : int;
  avg_loss : float;
  late : float;
}

let base_servers = 4
let small_servers = 4
let large_servers = 8
let min_servers = 2
let cycles = 5.0
let rho_low = 0.1
let rho_high = 2.0
let square_duty = 0.4

let shape_phases ~period = function
  | Diurnal -> Bursty.diurnal ~period ~low:rho_low ~high:rho_high ()
  | Square -> Bursty.square ~period ~duty:square_duty ~low:rho_low ~high:rho_high
  | Steady ->
    [| { Bursty.duration = period; rho = (rho_low +. rho_high) /. 2.0 } |]

(* Experiment geometry derived from the scale: the trace spans about
   [cycles] cycles of the shape, and the controller gets 24 decisions
   per cycle (so the predictive policy's seasonal period is 24 ticks
   whatever the scale). *)
let geometry ~kind ~shape ~(scale : Exp_scale.t) =
  let mu = Workloads.nominal_mean_ms kind in
  (* mean_rho is duration-weighted, so any period gives the same mean *)
  let mean_rho = Bursty.mean_rho (shape_phases ~period:1.0 shape) in
  let expected_span =
    Float.of_int scale.Exp_scale.n_queries
    *. mu
    /. (mean_rho *. Float.of_int base_servers)
  in
  let period = expected_span /. cycles in
  let interval = period /. 24.0 in
  (period, interval)

(* Server rent in $/ms. A saturated Exp/SLA-B server earns at most
   ~0.095 $/ms (one ~20 ms query worth <= 2.0 at a time, realistically
   ~1.9 on average); renting at roughly a quarter of that leaves
   well-used capacity clearly profitable and idle capacity clearly
   wasteful, whatever the decision interval works out to. *)
let cost_rate = 0.0225

let elastic_config ~interval =
  Elastic.config ~interval ~cost_per_interval:(cost_rate *. interval)
    ~boot_delay:(interval /. 2.0) ~cooldown:(2.0 *. interval) ~min_servers
    ~max_servers:large_servers ()

let workload ?(shape = Diurnal) ~kind ~(scale : Exp_scale.t) ~seed () =
  let period, interval = geometry ~kind ~shape ~scale in
  let cfg =
    Trace.config ~kind ~profile:Workloads.Sla_b ~load:1.0 ~servers:base_servers
      ~n_queries:scale.Exp_scale.n_queries ~seed ()
  in
  let phases = shape_phases ~period shape in
  (Bursty.generate cfg phases, interval)

(* Profit and cost are both accounted from t = 0 (warmup would skew
   net: the pool costs money during it but its profit would not
   count). *)
let run_one ~queries ~config ~make_policy ~label ~initial =
  let metrics, s =
    Elastic.run ~policy:(make_policy ()) ~config ~queries ~n_servers:initial
      ~warmup_id:0 ()
  in
  let profit = Metrics.total_profit metrics in
  {
    label;
    initial;
    profit;
    server_time = s.Elastic.server_time;
    cost = s.Elastic.cost;
    net = profit -. s.Elastic.cost;
    peak = s.Elastic.peak_pool;
    low = s.Elastic.min_pool;
    ups = s.Elastic.scale_ups;
    downs = s.Elastic.scale_downs;
    avg_loss = Metrics.avg_loss metrics;
    late = Metrics.late_fraction metrics;
  }

let oracle_label = "autoscale/oracle"
let predictive_label = "autoscale/predictive"
let reactive_label = "autoscale/SLA-tree"

(* A perfect-foresight schedule for one target utilization; the oracle
   row is the best net over [Forecast.Oracle.rho_candidates]. *)
let oracle_policy ~queries ~(config : Elastic.config) ~rho () =
  let sched =
    Forecast.Oracle.schedule ~queries ~interval:config.Elastic.interval
      ~lead:config.Elastic.boot_delay ~rho ~min_servers
      ~max_servers:large_servers ()
  in
  Elastic.scheduled ~target:(fun ~now -> Forecast.Oracle.target sched ~now) ()

let rows ?(kind = Workloads.Exp) ?(shape = Diurnal) ~(scale : Exp_scale.t)
    ~seed () =
  let queries, interval = workload ~shape ~kind ~scale ~seed () in
  let config = elastic_config ~interval in
  (* Policies hold run-local state (the predictive forecaster), so
     each run builds its own inside the worker; the runs share only
     the read-only query array and immutable config, so they fan out
     across the ambient pool and [map_list] keeps row order. *)
  let named = Printf.sprintf "%s@rho=%.2f" oracle_label in
  let items =
    [
      ((fun () -> Elastic.static), "static-small", small_servers);
      ((fun () -> Elastic.static), "static-large", large_servers);
      ((fun () -> Elastic.sla_tree_policy), reactive_label, small_servers);
      ((fun () -> Elastic.queue_threshold ()), "autoscale/queue", small_servers);
      ((fun () -> Elastic.predictive ()), predictive_label, small_servers);
    ]
    @ List.map
        (fun rho ->
          ((fun () -> oracle_policy ~queries ~config ~rho ()), named rho,
           small_servers))
        (Array.to_list Forecast.Oracle.rho_candidates)
  in
  let all =
    Parallel.map_list
      (fun (make_policy, label, initial) ->
        run_one ~queries ~config ~make_policy ~label ~initial)
      items
  in
  (* Collapse the oracle sweep into its best candidate (first wins
     ties — deterministic, the sweep order is fixed). *)
  let is_candidate r = String.starts_with ~prefix:(oracle_label ^ "@") r.label in
  let base = List.filter (fun r -> not (is_candidate r)) all in
  let best =
    List.fold_left
      (fun acc r ->
        if not (is_candidate r) then acc
        else
          match acc with
          | Some b when b.net >= r.net -> acc
          | _ -> Some r)
      None all
  in
  match best with
  | Some b -> base @ [ { b with label = oracle_label } ]
  | None -> base

(* ------------------------------------------------------------------ *)
(* Single-policy runs (the CLI's non-compare mode). The policy arrives
   as a spec, not a value: the predictive policy needs the obs sink
   threaded in and the oracle needs the workload itself. *)

type policy_spec =
  | Spec_static
  | Spec_sla_tree
  | Spec_queue
  | Spec_predictive of { forecast : string option; horizon : int option }
  | Spec_oracle of { rho : float option }

let policy_names = [ "sla-tree"; "queue"; "static"; "predictive"; "oracle" ]

(* A knob the named policy would ignore is refused, naming its option. *)
let policy_spec_of_string ?forecast ?horizon ?rho name =
  let owners =
    [
      ("--forecast", forecast <> None, "predictive");
      ("--horizon", horizon <> None, "predictive");
      ("--oracle-rho", rho <> None, "oracle");
    ]
  in
  match (List.find_opt (fun (_, given, p) -> given && p <> name) owners, name) with
  | Some (opt, _, p), _ -> Error (Printf.sprintf "%s applies only to --policy %s" opt p)
  | None, "static" -> Ok Spec_static
  | None, "sla-tree" -> Ok Spec_sla_tree
  | None, "queue" -> Ok Spec_queue
  | None, "predictive" -> Ok (Spec_predictive { forecast; horizon })
  | None, "oracle" -> Ok (Spec_oracle { rho })
  | None, s -> Error (Printf.sprintf "unknown policy %S" s)

(* Default oracle utilization for a single run (the comparison table
   sweeps instead). *)
let default_oracle_rho = 0.8

let materialize ?obs spec ~queries ~config =
  match spec with
  | Spec_static -> Ok Elastic.static
  | Spec_sla_tree -> Ok Elastic.sla_tree_policy
  | Spec_queue -> Ok (Elastic.queue_threshold ())
  | Spec_predictive { forecast; horizon } -> (
    let f =
      match forecast with
      | None -> Ok None
      | Some s -> Result.map Option.some (Forecast.of_spec s)
    in
    match f with
    | Error e -> Error e
    | Ok forecast -> Ok (Elastic.predictive ?obs ?forecast ?horizon ()))
  | Spec_oracle { rho } ->
    let rho = Option.value rho ~default:default_oracle_rho in
    if rho <= 0.0 then Error "oracle rho must be positive"
    else Ok (oracle_policy ~queries ~config ~rho ())

(* Run one policy on the experiment's workload, with the scale event
   log. [faults] is a [Fault.plan_of_spec] string realised over the
   trace's arrival span against the initial pool. *)
let run_policy ?obs ?timeseries ?faults ?(shape = Diurnal) ppf ~policy ~initial
    (scale : Exp_scale.t) =
  let seed = scale.Exp_scale.base_seed in
  let queries, interval = workload ~shape ~kind:Workloads.Exp ~scale ~seed () in
  let config = elastic_config ~interval in
  match materialize ?obs policy ~queries ~config with
  | Error e -> invalid_arg e
  | Ok policy ->
    let injector =
      Option.map
        (fun spec ->
          let horizon =
            if Array.length queries = 0 then 0.0
            else queries.(Array.length queries - 1).Query.arrival
          in
          let plan = Fault.plan_of_spec spec ~horizon ~n_servers:initial in
          Fault.create ?obs ~plan ())
        faults
    in
    let metrics, s =
      Elastic.run ?obs ?timeseries
        ?timers:(Option.map Fault.timers injector)
        ?on_server_event:(Option.map Fault.on_server_event injector)
        ~policy ~config ~queries ~n_servers:initial ~warmup_id:0 ()
    in
    Option.iter (fun i -> Fault.finalize i metrics) injector;
    let profit = Metrics.total_profit metrics in
    Fmt.pf ppf
      "policy %s, %s shape, %d queries, initial pool %d, interval %.0f ms@."
      (Elastic.policy_name policy)
      (shape_name shape) scale.Exp_scale.n_queries initial
      config.Elastic.interval;
    Fmt.pf ppf "%a@." Elastic.pp_summary s;
    List.iter
      (fun (t, a) -> Fmt.pf ppf "  t=%10.1f  %a@." t Elastic.pp_action a)
      s.Elastic.events;
    Fmt.pf ppf
      "profit $%.0f, cost $%.0f, net $%.0f (avg loss $%.3f, %.1f%% late)@."
      profit s.Elastic.cost
      (profit -. s.Elastic.cost)
      (Metrics.avg_loss metrics)
      (100.0 *. Metrics.late_fraction metrics);
    Option.iter
      (fun i -> Fmt.pf ppf "faults: %a@." Fault.pp_stats (Fault.stats i))
      injector

let pp_row ppf r =
  Fmt.pf ppf "%-21s %9.0f %12.0f %9.0f %9.0f %5d..%-4d %3d %5d %9.3f %7.1f%%"
    r.label r.profit r.server_time r.cost r.net r.low r.peak r.ups r.downs
    r.avg_loss (100.0 *. r.late)

let find_row rs label = List.find_opt (fun r -> r.label = label) rs

let run_shape ppf ~shape (scale : Exp_scale.t) =
  let seed = scale.Exp_scale.base_seed in
  Fmt.pf ppf "@.--- shape: %s ---@." (shape_name shape);
  Fmt.pf ppf "%-21s %9s %12s %9s %9s %10s %3s %5s %9s %8s@." "policy" "profit"
    "server-time" "cost" "net" "pool" "ups" "downs" "avg-loss" "late";
  let rs = rows ~shape ~scale ~seed () in
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_row r) rs;
  (match find_row rs reactive_label with
  | Some auto ->
    let beats =
      List.for_all
        (fun r -> r.net <= auto.net +. 1e-9)
        (List.filter (fun r -> String.starts_with ~prefix:"static" r.label) rs)
    in
    Fmt.pf ppf "SLA-tree autoscaler net %s the best static configuration.@."
      (if beats then "matches or beats" else "TRAILS")
  | None -> ());
  match (find_row rs reactive_label, find_row rs predictive_label,
         find_row rs oracle_label) with
  | Some r, Some p, Some o ->
    Fmt.pf ppf
      "three-way: reactive $%.0f vs predictive $%.0f vs oracle $%.0f — \
       predictive %s reactive by $%.0f; oracle headroom $%.0f.@."
      r.net p.net o.net
      (if p.net >= r.net then "beats" else "TRAILS")
      (p.net -. r.net) (o.net -. p.net)
  | _ -> ()

let run ppf (scale : Exp_scale.t) =
  Fmt.pf ppf
    "@.=== Elasticity: cyclic Exp/SLA-B workloads, %d queries, seed %d ===@."
    scale.Exp_scale.n_queries scale.Exp_scale.base_seed;
  Fmt.pf ppf
    "cost model: $%.3f per server-ms; pool bounds %d..%d; boot delay half an \
     interval; oracle = perfect-foresight schedule, best over rho sweep@."
    cost_rate min_servers large_servers;
  List.iter (fun shape -> run_shape ppf ~shape scale) all_shapes
