(** Planners: the fixed execution order the SLA-tree requires.

    A planner maps the arrival-ordered buffer to a stable permutation
    (the planned execution order). Stability gives the paper's
    "very minor condition" (Sec 6.2): inserting a query never reorders
    the existing ones.

    Each planner defines its order once: a float key per buffered
    query, written into one unboxed float array per call (Value-EDF adds
    its first-deadline tie key; FCFS has no key and keeps the buffer's
    order). {!plan}, {!head}, {!insertion_rank} and
    {!planned_with_rank} all read that array and compare entries by
    (key, tie key, index) under [Float.compare], a strict total order:
    the plan is the stable sort of the keys. *)

type t

val name : t -> string

(** [plan t ~now buffer] is the permutation: [perm.(k)] is the buffer
    index of the k-th query to execute. A sorting planner over two or
    more queries sorts the indices by its key array, with no closure
    call per comparison: O(n log n) for [n] buffered queries. *)
val plan : t -> now:float -> Query.t array -> int array

(** Buffer reordered into planned execution order. *)
val planned_queries : t -> now:float -> Query.t array -> Query.t array

(** [head t ~now buffer] is [(plan t ~now buffer).(0)] in one pass and
    without sorting: the least entry, the lower index winning ties.
    Under {!fcfs}, or over one query, it is 0, without a look at the
    buffer. Raises [Invalid_argument] on an empty buffer. *)
val head : t -> now:float -> Query.t array -> int

(** [insertion_rank t ~now buffer q] is the position [q] would take if
    inserted into the plan of [buffer], in [0 .. length buffer]. The
    newcomer loses every tie (it is the latest arrival), so its rank is
    the count of entries whose key pair is [<=] its own: one O(n) pass,
    in whatever order [buffer] holds them. Staged: [insertion_rank t
    ~now buffer] writes the keys once, and ranks any number of
    newcomers against them. Under {!fcfs} it is [length buffer]. *)
val insertion_rank : t -> now:float -> Query.t array -> Query.t -> int

(** [planned_with_rank t ~now buffer] is
    [(planned_queries t ~now buffer, insertion_rank t ~now buffer)],
    with the buffer keyed once for both: the rank counts the plan's own
    key pairs. *)
val planned_with_rank :
  t -> now:float -> Query.t array -> Query.t array * (Query.t -> int)

(** First-come-first-serve: identity order. *)
val fcfs : t

(** Shortest-job-first on estimated sizes. *)
val sjf : t

(** Earliest (first) deadline first. *)
val edf : t

(** Value-based scheduling (Haritsa et al., cited in Sec 2.3): highest
    best-case SLA gain first, EDF within a value class. *)
val value_edf : t

(** Cost-based scheduling (Peha-Tobagi): descending expected loss per
    unit work under a memoryless extra wait [X ~ Exp(rate)]. The order
    depends on [now]. *)
val cbs : rate:float -> t

(** CBS priority of a single query (exposed for tests). *)
val cbs_priority : rate:float -> now:float -> Query.t -> float
