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

(** Least-work-left: smallest estimated backlog wins. *)
val lwl : t

(** Profit delta of inserting [q] into server [sid]'s buffer as planned
    by [planner] (exposed for tests and capacity planning). [?arena]
    reuses tree storage across calls. *)
val insertion_profit :
  ?arena:Sla_tree.arena ->
  Planner.t ->
  Sim.t ->
  int ->
  Query.t ->
  float

(** SLA-tree dispatching: argmax of {!insertion_profit} over servers
    (exact profit ties fall back to least work left); reports the
    chosen delta through [est_delta]. With [admission], queries whose
    best delta is negative are rejected.

    For time-invariant planners the candidate loop memoizes one
    SLA-tree per server, keyed on the server's event generation and
    anchor time, rebuilding only when the server actually changed —
    identical decisions to the rebuild-per-candidate path.
    [?memo:false] disables the cache (the equivalence oracle). *)
val sla_tree : ?admission:bool -> ?memo:bool -> Planner.t -> t

(** O(1)-per-server profit of appending [q] to server [sid]'s FCFS
    schedule: under FCFS the newcomer ranks last and postpones nobody,
    so the what-if is its own profit at [now + est_work_left +
    est_size/speed] (exposed for tests). *)
val insertion_profit_fcfs : Sim.t -> int -> Query.t -> float

(** [sla_tree Planner.fcfs] without any per-decision tree build:
    {!insertion_profit_fcfs} answers each server's what-if from the
    incrementally maintained backlog accumulator. Identical picks. *)
val fcfs_sla_tree_incr : ?admission:bool -> unit -> t
