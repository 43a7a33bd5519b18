(* The three named workloads of the evaluation (Sec 7.1) and the SLA
   assignment rules for SLA-A and SLA-B. *)

type kind = Exp | Pareto | Ssbm_wl

type sla_profile = Sla_a | Sla_b

let all_kinds = [ Exp; Pareto; Ssbm_wl ]
let all_profiles = [ Sla_a; Sla_b ]

let kind_name = function Exp -> "Exp" | Pareto -> "Pareto" | Ssbm_wl -> "SSBM"
let profile_name = function Sla_a -> "SLA-A" | Sla_b -> "SLA-B"

let dist = function
  | Exp -> Service_dist.exponential ~mean:20.0
  | Pareto -> Service_dist.pareto ~x_min:1.0 ~alpha:1.0 ()
  | Ssbm_wl -> Ssbm.dist

(* The mu that parameterizes the SLA shapes (Fig 16): the workload's
   mean execution time. Pareto(alpha = 1) has no mean; the paper reports
   finite-sample means "around 25 ms", which we adopt as the nominal
   value. *)
let nominal_mean_ms = function
  | Exp -> 20.0
  | Pareto -> 25.0
  | Ssbm_wl -> Ssbm.mean_time_ms

(* SLA assignment. SLA-A: everyone gets the 1/0 SLA. SLA-B: for Exp
   and Pareto the customer/employee identity is drawn 10:1 independent
   of execution time; for SSBM it is correlated — queries longer than
   20 ms come from employees (Sec 7.1).

   Staged: the profile's one or two SLAs are built once, when the kind,
   profile and mu are applied, and every query assigned through the
   result shares one of them. The per-query draws are unchanged. *)
let assign_sla kind profile ~mu =
  match profile with
  | Sla_a ->
    let sla = Sla_profiles.sla_a ~mu in
    fun ~size:_ _ -> sla
  | Sla_b -> begin
    let customer = Sla_profiles.sla_b_customer ~mu
    and employee = Sla_profiles.sla_b_employee ~mu in
    match kind with
    | Exp | Pareto ->
      let total =
        Sla_profiles.sla_b_customer_weight + Sla_profiles.sla_b_employee_weight
      in
      fun ~size:_ rng ->
        if Prng.int rng total < Sla_profiles.sla_b_customer_weight then customer
        else employee
    | Ssbm_wl ->
      fun ~size _ ->
        if size > Sla_profiles.ssbm_employee_threshold_ms then employee
        else customer
  end
