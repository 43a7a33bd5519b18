(** Table 4 (Sec 7.4): capacity planning — per-query margin of one
    extra server, ground truth vs SLA-tree estimate (SLA-A,
    load 0.9). *)

type cell = {
  kind : Workloads.kind;
  servers : int;
  ground_truth : float;
  estimate : float;
}

val compute :
  ?kinds:Workloads.kind list -> ?servers:int list -> Exp_scale.t -> cell list

val to_report : ?servers:int list -> cell list -> Report.t
val run : Format.formatter -> Exp_scale.t -> unit
