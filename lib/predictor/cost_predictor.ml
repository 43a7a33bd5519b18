(* End-to-end execution-time prediction pipeline: generate a plan
   population, observe training executions, fit kNN, and emit
   simulator-ready traces whose estimates come from the model while
   the actual times come from fresh (noisy) executions — the realistic
   version of the paper's parametric robustness model (Sec 7.5). *)

type t = { model : Knn.t; noise_sigma : float }

let train ?(k = 7) ?(training_size = 2_000) ?(noise_sigma = 0.15) ~seed () =
  let rng = Prng.create seed in
  let plans = Array.init training_size (fun _ -> Query_plan.generate rng) in
  let xs = Array.map Query_plan.to_features plans in
  let ys = Array.map (fun p -> Query_plan.observed_cost_ms ~noise_sigma p rng) plans in
  { model = Knn.fit ~k xs ys; noise_sigma }

let predict t plan = Knn.predict t.model (Query_plan.to_features plan)

(* Test-set MAPE on fresh plans and fresh executions. *)
let evaluate ?(test_size = 1_000) t ~seed =
  let rng = Prng.create seed in
  let plans = Array.init test_size (fun _ -> Query_plan.generate rng) in
  let xs = Array.map Query_plan.to_features plans in
  let ys =
    Array.map
      (fun p -> Query_plan.observed_cost_ms ~noise_sigma:t.noise_sigma p rng)
      plans
  in
  Knn.mape t.model xs ys

(* A trace whose estimated sizes are model predictions and whose
   actual sizes are fresh noisy executions of the same plans; arrivals
   are Poisson at the requested load (calibrated on the actual
   sizes). *)
let generate_trace t ~profile ~load ~servers ~n_queries ~seed =
  if load <= 0.0 || servers <= 0 || n_queries <= 0 then
    invalid_arg "Cost_predictor.generate_trace: bad parameters";
  let master = Prng.create seed in
  let rng_plan = Prng.split master in
  let rng_exec = Prng.split master in
  let rng_arrival = Prng.split master in
  let rng_sla = Prng.split master in
  let plans = Array.init n_queries (fun _ -> Query_plan.generate rng_plan) in
  let est = Array.map (predict t) plans in
  let actual =
    Array.map
      (fun p -> Query_plan.observed_cost_ms ~noise_sigma:t.noise_sigma p rng_exec)
      plans
  in
  let mean_actual = Arrayx.sum_float actual /. Float.of_int n_queries in
  let mean_interarrival = mean_actual /. (load *. Float.of_int servers) in
  (* SLA bounds scale with the workload's own mean, like Fig 16. The
     identity is drawn independent of size, as for the Exp workload. *)
  let assign_sla = Workloads.assign_sla Workloads.Exp profile ~mu:mean_actual in
  let time = ref 0.0 in
  Array.init n_queries (fun id ->
      time := !time +. Prng.exponential rng_arrival ~mean:mean_interarrival;
      let sla = assign_sla ~size:est.(id) rng_sla in
      Query.make ~id ~arrival:!time ~size:actual.(id) ~est_size:est.(id) ~sla ())
