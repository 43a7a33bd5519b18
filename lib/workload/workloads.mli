(** The evaluation's three workloads and two SLA profiles (Sec 7.1). *)

type kind =
  | Exp  (** exponential service times, mean 20 ms *)
  | Pareto  (** Pareto service times, x_min 1 ms, index 1 *)
  | Ssbm_wl  (** SSBM trace (Table 1), uniform sampling *)

type sla_profile = Sla_a | Sla_b

val all_kinds : kind list
val all_profiles : sla_profile list
val kind_name : kind -> string
val profile_name : sla_profile -> string

val dist : kind -> Service_dist.t

(** The [mu] that parameterizes the SLA shapes: 20 ms (Exp), 25 ms
    (Pareto, finite-sample nominal), 10.2 ms (SSBM). *)
val nominal_mean_ms : kind -> float

(** Draw the SLA for a query of estimated size [size] (ms). Under SLA-B,
    Exp/Pareto draw customer:employee 10:1 independent of size; SSBM
    correlates by the 20 ms threshold. Staged: [assign_sla kind profile
    ~mu] builds the profile's one (SLA-A) or two (SLA-B) SLAs once, and
    every SLA it then returns is physically one of them. *)
val assign_sla :
  kind -> sla_profile -> mu:float -> size:float -> Prng.t -> Sla.t
