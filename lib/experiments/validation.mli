(** Substrate validation: simulated FCFS SLA-A loss vs the analytic
    M/M/m response tail on the exponential workload. *)

type row = {
  servers : int;
  load : float;
  simulated : float;
  analytic : float;
}

val compute : ?loads:float list -> ?servers:int list -> Exp_scale.t -> row list
val run : Format.formatter -> Exp_scale.t -> unit
