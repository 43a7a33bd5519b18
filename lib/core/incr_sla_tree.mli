(** Incremental SLA-tree (the paper's stated future work, Sec 9).

    Supports the FCFS buffer life cycle without rebuilding on every
    change. The live buffer is a base a flat tree was built over,
    followed by an overflow that questions scan unit by unit. Popping
    the executed head is O(1): schedule drift is absorbed into a single
    delay offset applied to the questions, not the tree. Appends only
    fill the overflow. The overflow is folded into a new tree (a
    rebuild) once the scans since the last build or drain have visited
    more than [n * (floor(log2 n) + 1)] entries for [n] live queries,
    so scanning costs at most one extra build. Folds run in {!append}
    and {!pop_head} only, never inside a question.

    Questions use positions into the *current* live buffer (0 = next
    to execute), not the original build order. Answers equal a fresh
    {!Sla_tree} built over {!to_entries} and the naive unit scan over
    it, up to float rounding — the test suite checks this equivalence
    on random operation sequences. *)

type t

(** [create ~now queries] builds the structure over the initial buffer
    (possibly empty), scheduled back-to-back from [now], in a flat
    arena the structure owns; the build is eager and does not count as
    a rebuild. When [obs] is an enabled sink, counts rebuilds, appends,
    pops and what-if probe calls into it ([sla_tree.*], [whatif.*]). *)
val create : ?obs:Obs.t -> now:float -> Query.t array -> t

(** Live queries currently buffered. *)
val length : t -> int

(** FCFS arrival: schedule the query at the current tail, in the
    overflow. O(1), plus a fold when the scans have paid for one. *)
val append : t -> Query.t -> unit

(** The buffer head was executed, taking [actual] time (default: its
    estimate); everything downstream shifts by the difference. The
    head comes from the base while it lasts, then from the overflow; a
    fully popped base is dropped, not rebuilt. Once the buffer drains,
    the next append starts when the last head finished. O(1), plus a
    fold when the scans have paid for one. Raises on an empty
    buffer. *)
val pop_head : ?actual:float -> t -> unit

(** Profit lost if live queries [m..n] are postponed by [tau]: the
    tree answers the base part in O(log NK), a scan the overflow part
    in O(K) per overflow entry in the range, amortized by the fold
    rule. On the overflow the answer is a plain sum of the counted
    gains. Never negative, like {!expedite}. *)
val postpone : t -> m:int -> n:int -> tau:float -> float

(** Profit gained if live queries [m..n] are expedited by [tau]; costs
    as {!postpone}. *)
val expedite : t -> m:int -> n:int -> tau:float -> float

(** The live schedule with true start times (for oracles/debugging). *)
val to_entries : t -> Schedule.entry array

(** Introspection for tests and benchmarks: folds since [create]
    (every build after it), and queries in the overflow. *)
val rebuild_count : t -> int

val pending_count : t -> int
val delay : t -> float
