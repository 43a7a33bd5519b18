(* Trace generation: Poisson arrivals + per-query sizes and SLAs.

   A trace is the full, materialized input to one simulation run. The
   same trace can be replayed against different policies or different
   server counts (as the capacity-planning ground truth requires,
   Sec 7.4).

   Load calibration: the paper controls the *system load* directly
   ("with the system load set to 0.9"). For Exp and SSBM the nominal
   workload mean equals the true mean, but Pareto(alpha = 1) has an
   infinite theoretical mean and a slowly-growing finite-sample mean,
   so calibrating against the nominal 25 ms would leave the servers
   badly under-utilized. We therefore set the arrival rate against the
   *empirical* mean of the actual sizes of the generated trace:
   utilization genuinely equals [load] for every workload. SLA bounds
   keep using the nominal mean (they are business constants). *)

type config = {
  kind : Workloads.kind;
  profile : Workloads.sla_profile;
  load : float;  (** system load rho = lambda * mean_size / servers *)
  servers : int;
  n_queries : int;
  error : Estimate_error.t;
  seed : int;
}

let config ?(error = Estimate_error.none) ~kind ~profile ~load ~servers
    ~n_queries ~seed () =
  if load <= 0.0 then invalid_arg "Trace.config: load must be positive";
  if servers <= 0 then invalid_arg "Trace.config: servers must be positive";
  if n_queries <= 0 then invalid_arg "Trace.config: n_queries must be positive";
  { kind; profile; load; servers; n_queries; error; seed }

(* Generate all queries of a trace around a pluggable arrival process.
   Independent PRNG streams for the arrival process, the size draws,
   the SLA identities and the estimation errors: changing one knob
   (e.g. the error sigma) leaves the other draws untouched, which
   keeps the robustness comparison (Tables 5-6) paired.

   [arrival_times ~mean_size rng] must return [cfg.n_queries]
   non-decreasing times; it sees the trace's empirical mean size so it
   can calibrate its rate the same way the homogeneous process does.
   This is the extension point non-homogeneous generators (Bursty's
   piecewise-constant rate schedule) plug into. *)
let materialize cfg ~arrival_times =
  let master = Prng.create cfg.seed in
  let rng_arrival = Prng.split master in
  let rng_size = Prng.split master in
  let rng_sla = Prng.split master in
  let rng_err = Prng.split master in
  let dist = Workloads.dist cfg.kind in
  let mu = Workloads.nominal_mean_ms cfg.kind in
  (* Sizes first: the arrival rate is calibrated on their mean. *)
  let est_sizes =
    Array.init cfg.n_queries (fun _ -> Service_dist.sample dist rng_size)
  in
  let sizes =
    Array.map
      (fun est -> Estimate_error.actual_of_estimate cfg.error rng_err ~estimate:est)
      est_sizes
  in
  let mean_size =
    Arrayx.sum_float sizes /. Float.of_int cfg.n_queries
  in
  let arrivals = arrival_times ~mean_size rng_arrival in
  if Array.length arrivals <> cfg.n_queries then
    invalid_arg "Trace.materialize: arrival_times returned the wrong count";
  let assign_sla = Workloads.assign_sla cfg.kind cfg.profile ~mu in
  Array.init cfg.n_queries (fun id ->
      let est_size = est_sizes.(id) in
      let sla = assign_sla ~size:est_size rng_sla in
      Query.make ~id ~arrival:arrivals.(id) ~size:sizes.(id) ~est_size ~sla ())

let generate cfg =
  materialize cfg ~arrival_times:(fun ~mean_size rng ->
      let arrival_rate = cfg.load *. Float.of_int cfg.servers /. mean_size in
      let mean_interarrival = 1.0 /. arrival_rate in
      let t = ref 0.0 in
      Array.init cfg.n_queries (fun _ ->
          t := !t +. Prng.exponential rng ~mean:mean_interarrival;
          !t))

(* Nominal arrival rate (queries/ms) if the workload's nominal mean
   held exactly; the realized rate uses the trace's empirical mean. *)
let arrival_rate cfg =
  let mu = Workloads.nominal_mean_ms cfg.kind in
  cfg.load *. Float.of_int cfg.servers /. mu

(* Same trace config with a different server count (the generated trace
   itself should be reused when comparing server counts). *)
let with_servers cfg servers = { cfg with servers }
