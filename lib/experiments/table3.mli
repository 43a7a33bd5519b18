(** Table 3 (Sec 7.3): dispatching comparison at load 0.9 across server
    counts. *)

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  servers : int;
  disp : Exp_common.disp_kind;
  avg_loss : float;
}

val compute :
  ?profiles:Workloads.sla_profile list ->
  ?kinds:Workloads.kind list ->
  ?servers:int list ->
  Exp_scale.t ->
  cell list

val to_report : ?servers:int list -> cell list -> Report.t
val run : Format.formatter -> Exp_scale.t -> unit
