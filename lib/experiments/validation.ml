(* Substrate validation (not a paper table): the simulator's measured
   SLA-A loss under FCFS on the exponential workload must match the
   closed-form M/M/1 response-time tail, and stay close to the M/M/m
   bound for multi-server runs (per-server buffers without jockeying
   are slightly worse than the single shared M/M/m queue, so the
   analytic value is a lower bound there). *)

type row = {
  servers : int;
  load : float;
  simulated : float;
  analytic : float;
}

let default_loads = [ 0.3; 0.5; 0.7; 0.9 ]
let default_servers = [ 1; 3 ]

let compute ?(loads = default_loads) ?(servers = default_servers)
    (scale : Exp_scale.t) =
  let mu_ms = Workloads.nominal_mean_ms Workloads.Exp in
  let service_rate = 1.0 /. mu_ms in
  let bound = 2.0 *. mu_ms in
  (* Independent (servers, load) cells fan out across the ambient
     pool. *)
  Exp_common.product servers loads
  |> Parallel.map_list (fun (m, load) ->
         let loss ~seed =
           Trace.generate
             (Trace.config ~kind:Workloads.Exp ~profile:Workloads.Sla_a ~load
                ~servers:m ~n_queries:scale.n_queries ~seed ())
           |> Exp_common.run ~n_servers:m ~scheduler:Schedulers.fcfs
                ~dispatcher:Dispatchers.lwl ~warmup:scale.warmup
           |> Metrics.avg_loss
         in
         let arrival_rate = load *. Float.of_int m *. service_rate in
         {
           servers = m;
           load;
           simulated = Exp_common.(mean (repeats scale loss));
           analytic =
             Queueing.mmm_response_tail ~servers:m ~arrival_rate ~service_rate
               ~t:bound;
         })

let run ppf scale =
  let rows = compute scale in
  Fmt.pf ppf
    "@.=== Validation: simulated FCFS SLA-A loss vs analytic M/M/m tail (Exp \
     workload) ===@.";
  Fmt.pf ppf "%8s %6s %12s %12s@." "servers" "load" "simulated" "analytic";
  List.iter
    (fun r ->
      Fmt.pf ppf "%8d %6.1f %12.4f %12.4f%s@." r.servers r.load r.simulated
        r.analytic
        (if r.servers > 1 then "  (lower bound: per-server buffers)" else ""))
    rows
