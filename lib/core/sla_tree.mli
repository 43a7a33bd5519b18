(** The SLA-tree (paper Secs 3-5): slack tree [S+] plus tardiness tree
    [S-] over a buffer of queries with a known execution order.

    Build cost is [O(NK log NK)] for [N] queries with at most [K] SLA
    levels each; every question below is [O(log NK)]. Positions are
    0-based buffer indices; ranges are inclusive. *)

type t

(** Reusable backing store for builds. An arena holds one live tree:
    building into it again invalidates the previous tree. Do not share
    across domains. *)
type arena = Flat_sla_tree.arena

val create_arena : unit -> arena

(** [build ~now queries] schedules [queries] back-to-back from [now]
    (the order of the array is the execution order) and builds both
    trees; [?arena] reuses backing storage. *)
val build : ?arena:arena -> now:float -> Query.t array -> t

(** Build over custom scheduled starts. *)
val of_entries : ?arena:arena -> now:float -> Schedule.entry array -> t

val length : t -> int
val now : t -> float
val entries : t -> Schedule.entry array
val entry : t -> int -> Schedule.entry

(** (slack units, tardiness units). *)
val unit_counts : t -> int * int

(** [postpone t ~m ~n ~tau]: profit lost if queries [m..n] start [tau]
    later than scheduled. On an empty buffer every probe answers [0.0];
    otherwise raises [Invalid_argument] on a bad range. Negative [tau]
    always raises. *)
val postpone : t -> m:int -> n:int -> tau:float -> float

(** [expedite t ~m ~n ~tau]: profit gained if queries [m..n] start
    [tau] earlier than scheduled. Empty-buffer probes answer [0.0]. *)
val expedite : t -> m:int -> n:int -> tau:float -> float

(** Gains of on-time units among queries [0..n] (still earnable). *)
val profit_at_stake : t -> n:int -> float

val total_profit_at_stake : t -> float

(** Gains of late units among queries [0..n] (recoverable by
    expediting). *)
val recoverable_profit : t -> n:int -> float

val total_recoverable_profit : t -> float
