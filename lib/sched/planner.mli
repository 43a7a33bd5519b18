(** Planners: the fixed execution order the SLA-tree requires.

    A planner maps the arrival-ordered buffer to a stable permutation
    (the planned execution order). Stability gives the paper's
    "very minor condition" (Sec 6.2): inserting a query never reorders
    the existing ones.

    Every planner is a stable sort on a lexicographic pair of float
    keys (FCFS's pair is constant, so its order is arrival order).
    {!head} and {!insertion_rank_sorted} read the pair directly. *)

type t

val name : t -> string

(** Whether the planned order is independent of the decision time
    [now] (CBS is the time-dependent exception). Its one reader is
    [Dispatchers.insertion_profit]: these planners' keys ignore the
    estimate or order by it, so a plan divided by one server's speed
    stays sorted and the rank on a scaled server is a binary search. *)
val time_invariant : t -> bool

(** [plan t ~now buffer] is the permutation: [perm.(k)] is the buffer
    index of the k-th query to execute. *)
val plan : t -> now:float -> Query.t array -> int array

(** Buffer reordered into planned execution order. *)
val planned_queries : t -> now:float -> Query.t array -> Query.t array

(** [head t ~now buffer] is [(plan t ~now buffer).(0)] in one pass and
    without sorting: the least key pair under the plan's comparator
    ([Float.compare] on each key), the lower index winning ties.
    Raises [Invalid_argument] on an empty buffer. *)
val head : t -> now:float -> Query.t array -> int

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
    unit work under a memoryless extra wait [X ~ Exp(rate)]. *)
val cbs : rate:float -> t

(** CBS priority of a single query (exposed for tests). *)
val cbs_priority : rate:float -> now:float -> Query.t -> float

(** Position the query would take if inserted into the planned order
    of [buffer]; in [0 .. length buffer]. *)
val insertion_rank : t -> now:float -> Query.t array -> Query.t -> int

(** Same answer as {!insertion_rank} when [buffer] is already in
    planned order (the output of {!planned_queries}), but O(log n): the
    newcomer loses every tie, so its rank is the count of entries with
    key pair [<=] its own. *)
val insertion_rank_sorted : t -> now:float -> Query.t array -> Query.t -> int
