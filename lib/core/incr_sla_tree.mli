(** Incremental SLA-tree (the paper's stated future work, Sec 9).

    Supports the FCFS buffer life cycle without rebuilding on every
    change: popping the executed head is O(1) (schedule drift is
    absorbed into a single delay offset applied to the questions, not
    the tree), and appended queries go to a bounded overflow that is
    folded in by an amortized lazy rebuild.

    Questions use positions into the *current* live buffer (0 = next
    to execute), not the original build order. Answers equal a fresh
    {!Sla_tree} built over {!to_entries} and the naive unit scan over
    it, up to float rounding — the test suite checks this equivalence
    on random operation sequences. *)

type t

(** [create ~now queries] builds the structure over the initial buffer
    (possibly empty), scheduled back-to-back from [now], in a flat
    arena the structure owns. When [obs] is an enabled sink, counts
    amortized rebuilds/appends/pops and what-if probe calls into it
    ([sla_tree.*], [whatif.*]). *)
val create : ?obs:Obs.t -> now:float -> Query.t array -> t

(** [reset t ~now queries] makes [t] hold what [create ~now queries]
    would, rebuilding in place through [t]'s arena; [t] keeps its [obs]
    handles and rebuild count. Like [create], it does not count as a
    rebuild. *)
val reset : t -> now:float -> Query.t array -> unit

(** Live queries currently buffered. *)
val length : t -> int

(** Next query to execute (the buffer head), without removing it.
    O(1). *)
val peek : t -> Query.t option

(** FCFS arrival: schedule the query at the current tail. Amortized
    O(K) (may trigger a rebuild). *)
val append : t -> Query.t -> unit

(** The buffer head was executed, taking [actual] time (default: its
    estimate); everything downstream shifts by the difference. O(1)
    except for occasional amortized rebuilds. Raises on an empty
    buffer. *)
val pop_head : ?actual:float -> t -> unit

(** After the buffer drained, restart the schedule at [now] (the
    server sat idle). Raises if the buffer is non-empty. *)
val reset_origin : t -> now:float -> unit

(** Profit lost if live queries [m..n] are postponed by [tau];
    O(log NK + BK) for overflow size B. Never negative, like
    {!expedite}. *)
val postpone : t -> m:int -> n:int -> tau:float -> float

(** Profit gained if live queries [m..n] are expedited by [tau]. *)
val expedite : t -> m:int -> n:int -> tau:float -> float

(** [planned t i]: live query [i] with its start on the planned
    timeline, without copying; its true start is that start plus
    {!delay}. Raises [Invalid_argument] out of range. O(1). *)
val planned : t -> int -> Schedule.entry

(** The live schedule with true start times (for oracles/debugging). *)
val to_entries : t -> Schedule.entry array

(** Introspection for tests and benchmarks. *)
val rebuild_count : t -> int

val pending_count : t -> int
val delay : t -> float
