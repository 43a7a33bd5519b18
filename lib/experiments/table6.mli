(** Table 6 (Sec 7.5): dispatching robustness to estimation error
    (5 servers, load 0.9). *)

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  sigma2 : float;
  disp : Exp_common.disp_kind;
  avg_loss : float;
}

val compute :
  ?profiles:Workloads.sla_profile list ->
  ?kinds:Workloads.kind list ->
  ?sigmas:float list ->
  Exp_scale.t ->
  cell list

val to_report : ?sigmas:float list -> cell list -> Report.t
val run : Format.formatter -> Exp_scale.t -> unit
