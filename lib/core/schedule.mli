(** Scheduled start times for an ordered query buffer.

    The SLA-tree requires a known execution order (paper Sec 8.1); this
    module turns that order plus the server-free time into per-query
    scheduled starts, using estimated execution times. *)

type entry = { query : Query.t; start : float }

(** [of_queries ~now queries] schedules the array back-to-back starting
    at [now], in array order. *)
val of_queries : now:float -> Query.t array -> entry array

(** Scheduled completion ([start + est_size]). *)
val completion : entry -> float

(** [slack e ~bound] is the level deadline minus scheduled completion;
    negative values are tardiness. *)
val slack : entry -> bound:float -> float

(** Total profit of the schedule if executed exactly as planned. *)
val scheduled_profit : entry array -> float
