(** Dispatchers: named [Sim.dispatch] factories (paper Secs 2.3, 6.2).

    [instantiate] returns a fresh closure per run so stateful policies
    don't leak state across repeats. *)

type t

val name : t -> string

(** When [obs] is an enabled sink, the dispatch is wrapped to record
    per-decision latency ([dispatch.decision_ns] histogram,
    [dispatch.decisions] / [dispatch.rejected] counters); over the
    default {!Obs.noop} the raw closure is returned. *)
val instantiate : ?obs:Obs.t -> t -> Sim.dispatch

(** Constructor for dispatchers defined in other modules. *)
val v : name:string -> (unit -> Sim.dispatch) -> t

(** Uniformly random server. *)
val random : seed:int -> t

(** Cycle through servers. *)
val round_robin : t

(** Least-work-left: smallest estimated backlog wins, ties to the
    lowest sid. A decision reads {!Sim.least_work} and compares its
    [k] speed-class champions, so it costs O(k) plus the index's read
    (no other server is visited). *)
val lwl : t

(** [insertion_profit planner sim sid q] is the profit delta of
    inserting [q] into server [sid]'s buffer as planned by [planner]
    (Sec 6.2): [q]'s own profit at its planned slot minus the postpone
    loss it inflicts on the queries planned behind it, on execution
    times divided by the server's speed.

    Staged: [insertion_profit planner sim sid] plans the buffer once
    and returns the pricer, so two queries priced against the same
    server state (a query and its degraded copy) share one plan. An
    empty buffer plans nothing: the delta is [q]'s profit at
    [free_at + est].

    The one question is answered by a direct scan, without an
    SLA-tree. Cost: an O(n log n) plan and one key per buffered query
    (two at a speed other than 1.0, where the rank keys the scaled
    copies), then O(n + kK) per priced query, for [k] displaced queries
    with [K] SLA levels each.

    Rank: the newcomer loses every tie. It is the count of plan entries
    whose key pair, on the speed-scaled estimates, is [<=] the scaled
    newcomer's ({!Planner.insertion_rank}); at speed 1.0 it counts the
    keys the plan was sorted by ({!Planner.planned_with_rank}).

    Against an SLA-tree built over the same plan
    ({!What_if.insertion_delta}): every start and the newcomer's own
    profit are the same floats, so the delta is bit-equal when [q]
    appends (rank = n) or has a zero estimate. Otherwise the displaced
    gains are summed in rank order rather than by the tree's prefix
    difference, and the delta may differ in the last bits. *)
val insertion_profit : Planner.t -> Sim.t -> int -> Query.t -> float

(** SLA-tree dispatching: argmax of {!insertion_profit} over the
    dispatchable servers (exact profit ties fall back to least work
    left, then the lowest sid); reports the chosen delta through
    [est_delta]. With [admission], queries whose best delta is negative
    are rejected.

    Every candidate is priced by {!insertion_profit}'s scan, and
    nothing is kept between arrivals. An arrival plans each
    dispatchable server's buffer once, so it costs O(n log n + n + kK)
    per server with [n] buffered queries, [k] of them displaced (O(1)
    for an empty buffer). *)
val sla_tree : ?admission:bool -> Planner.t -> t

(** O(1)-per-server profit of appending [q] to server [sid]'s FCFS
    schedule: under FCFS the newcomer ranks last and postpones nobody,
    so the what-if is its own profit at the completion time
    [c = now + est_work_left + est_size/speed]. A function of [c]
    alone, and non-increasing in it ({!Sla.make} makes profit
    non-increasing in response time). Used by the elastic removal
    probe and the tests. *)
val insertion_profit_fcfs : Sim.t -> int -> Query.t -> float

(** The FCFS dispatch pick: [Some (sid, delta)] for the dispatchable
    server with the highest {!insertion_profit_fcfs}, ties to the least
    work left, then to the lowest sid; [None] when no server accepts
    work. Within one speed class the completion time never falls as
    the work left grows, and profit never rises with completion time,
    so each class's least-work member ({!Sim.least_work}) earns the
    class's most profit and wins its ties. Profit is asked of those [k]
    champions only, and the exact rule settles between them: a read
    costs O(k) profit evaluations plus the index's read, independent
    of the pool size. Target and delta bits equal the scan of every
    server. Completion times must be finite, which {!Query.make}
    guarantees. [Tenancy.admit] prices the server this picks. *)
val fcfs_best : Sim.t -> Query.t -> (int * float) option

(** [sla_tree Planner.fcfs] without planning or scanning any buffer:
    each arrival goes to {!fcfs_best}'s server, which answers each
    what-if from the incrementally maintained backlog accumulator.
    Identical picks and [est_delta]; with [admission], a negative best
    delta rejects. The CLI's default dispatcher ([tree-fcfs]). *)
val fcfs_sla_tree : ?admission:bool -> unit -> t

(** [fcfs_sla_tree] under its former name, kept only because perfbench
    names it. *)
val fcfs_sla_tree_incr : ?admission:bool -> unit -> t
