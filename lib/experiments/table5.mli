(** Table 5 (Sec 7.5): scheduling robustness to estimation error. *)

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  sigma2 : float;
  sched : Exp_common.sched_kind;
  avg_loss : float;
}

val error_of : float -> Estimate_error.t

val compute :
  ?profiles:Workloads.sla_profile list ->
  ?kinds:Workloads.kind list ->
  ?sigmas:float list ->
  Exp_scale.t ->
  cell list

val to_report : ?sigmas:float list -> cell list -> Report.t
val run : Format.formatter -> Exp_scale.t -> unit
