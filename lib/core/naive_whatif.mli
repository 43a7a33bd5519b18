(** O(N)-per-question reference answers to the two key questions
    (paper Sec 3.2) — oracles for the test suite.

    Ranges are 0-based and inclusive: [m..n] over the buffer order. *)

(** Profit lost when queries [m..n] are postponed by [tau], computed by
    scanning the g/0 unit expansion. *)
val postpone_by_units :
  Schedule.entry array -> m:int -> n:int -> tau:float -> float

(** Profit gained when queries [m..n] are expedited by [tau] (unit
    scan). *)
val expedite_by_units :
  Schedule.entry array -> m:int -> n:int -> tau:float -> float

(** Same questions answered by re-evaluating each stepwise SLA at the
    shifted completion time — independent of the decomposition. *)
val postpone_by_recompute :
  Schedule.entry array -> m:int -> n:int -> tau:float -> float

val expedite_by_recompute :
  Schedule.entry array -> m:int -> n:int -> tau:float -> float
