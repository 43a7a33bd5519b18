(** Event-driven multi-server queueing simulator (paper Fig 4) over a
    dynamic server pool.

    Queries arrive at a central dispatcher; each server has a single
    buffer and a scheduler that picks the next query when the server
    idles. Decision makers see estimated execution times; servers are
    occupied for the actual ones.

    The pool is elastic: {!add_server} grows it mid-run (optionally
    after a boot delay) and {!retire_server} shrinks it through a
    drain protocol. Server ids are never reused; dispatchers must only
    target servers for which {!dispatchable} holds.

    Buffers are array-backed FIFO deques and every server maintains
    its estimated backlog incrementally, so dispatch-time probes
    ([buffer_length], [est_work_left]) are O(1). The least-work index
    ({!least_work}) proposes one server per speed class, so the LWL and
    FCFS SLA-tree dispatchers visit no other server. *)

type running = {
  rquery : Query.t;
  started : float;
  act_finish : float;
  est_finish : float;
}

(** Pool-membership life cycle: [Booting until] servers are pool
    members but accept no work before [until]; [Draining] servers
    accept no new work and become [Retired] once they hold none;
    [Down] servers crashed and hold no work but still occupy a
    machine until {!restore_server} (repair) or {!retire_server}
    (give up). *)
type server_state = Booting of float | Active | Draining | Down | Retired

(** Read-only outside [Sim]: the event loop keys the server's pending
    completion by [running]'s [act_finish], in the same step that
    changes it, and the least-work index ({!least_work}) mirrors
    [running], [est_backlog], [speed] and [state]: a change marks the
    server, and the next read places what changed. *)
type server = private {
  sid : int;
  mutable speed : float;
      (** current processing rate; execution takes size/speed. Changed
          only through {!set_speed}/{!degrade_server}/{!restore_server}. *)
  nominal : float;  (** the provisioned rate ({!restore_server} returns to it) *)
  mutable running : running option;
  buffer : Query.t Deque.t;  (** arrival order, oldest first *)
  mutable est_backlog : float;
      (** sum of buffered [est_size] (raw, not speed-scaled), never
          below zero *)
  mutable state : server_state;
}

(** Per-server life-cycle notifications (consumed by the fault
    injector, the elastic controller's accounting and the serving
    daemon's drop notices). Within one completion the order is: [Finished], zero or more
    [Dropped], the [pick_next] call, then [Started] for the chosen
    query. An arrival emits [Enqueued] (busy server) or [Started]
    (idle server, which begins executing immediately). Pool changes
    emit [Scaled_up] when a server joins, [Draining] when retirement
    begins (a redistributed buffer re-enters through the dispatcher,
    emitting fresh [Enqueued]/[Started] on the targets) and [Retired]
    when the server leaves for good. Fault transitions emit [Crashed]
    (orphans leave through {!crash_server}'s return value, without
    [Dropped] events),
    [Degraded] (mid-run service-rate change) and [Restored]. *)
type server_event =
  | Started of Query.t
  | Enqueued of Query.t
  | Finished of { query : Query.t; actual : float }
      (** [actual] is the wall-clock execution duration *)
  | Dropped of Query.t
  | Scaled_up
  | Draining
  | Retired
  | Crashed
  | Degraded of float  (** the new service rate *)
  | Restored

type t

(** [pick_next ~now buffer] is the index, into the arrival-ordered
    buffer, of the query to execute next. *)
type pick_next = now:float -> Query.t array -> int

(** A dispatch decision: [target = None] rejects the query
    (admission control); [est_delta] optionally reports the estimated
    profit delta of the chosen server (consumed by capacity planning
    and the elastic controller). *)
type decision = { target : int option; est_delta : float option }

type dispatch = t -> Query.t -> decision

(** An admission controller's verdict on an arriving query, delivered
    {e before} the dispatcher sees it: wave it through unchanged, swap
    in a down-tiered copy ([Degrade] must keep the query id — all
    completion bookkeeping is keyed on it), or refuse outright.
    Refusals are recorded exactly like dispatcher rejections
    ({!Metrics.record_rejected}), so [offered = admitted + rejected]
    holds either way. *)
type verdict =
  | Admit
  | Degrade of Query.t
  | Reject

type admit = t -> Query.t -> verdict

(** Total servers ever in the pool (retired ones included — ids index
    into this range). *)
val n_servers : t -> int

val server : t -> int -> server
val now : t -> float
val buffer_array : server -> Query.t array
val buffer_length : server -> int

(** Whether server [sid] currently accepts dispatches ([Active], or
    [Booting] whose delay has elapsed — checking promotes it). *)
val dispatchable : t -> int -> bool

val server_state : t -> int -> server_state

(** Pool members: servers not yet retired (booting and draining
    included — they still occupy machines). *)
val live_servers : t -> int

val dispatchable_count : t -> int

(** Grow the pool by one server mid-run; returns its id. With
    [boot_delay], the server joins (and emits [Scaled_up]) now but
    accepts no dispatches before [now + boot_delay]. *)
val add_server : ?speed:float -> ?boot_delay:float -> t -> int

(** Start the drain protocol on server [sid]: it immediately stops
    receiving dispatches; with [redistribute] (default [true]) its
    buffered queries re-enter the dispatcher, otherwise it works its
    own buffer off. Emits [Draining] now and [Retired] once the server
    holds no work (immediately when idle). Idempotent on draining or
    retired servers ([Booting] and [Down] servers hold no work and
    retire immediately). Raises [Invalid_argument] if no other server
    would accept work.

    A redistributed query that the dispatcher then declines
    ([target = None]) is recorded as a {e rejection} — counted in
    [Metrics.rejected_count], reported to [on_dispatch] — exactly as
    if it had just arrived. Redistribution never silently loses
    queries. *)
val retire_server : ?redistribute:bool -> t -> int -> unit

(** {2 Fault transitions}

    Non-graceful counterparts to the drain protocol, driven by
    [Fault] injectors (or tests) from [?timers] callbacks. *)

(** Crash server [sid]: the running query (if any) is killed — its
    pending completion leaves the event queue at once — the buffer is
    cleared, [est_backlog] zeroed, and the orphaned queries (running
    first, then buffer in arrival order) are {e returned} to the
    caller, who decides their fate: re-inject via {!reinject} (as
    [Query.retried] copies, keeping the SLA clock) or account them
    with [Metrics.record_lost]. Emits [Crashed]; the server lands in
    [Down] at its nominal speed ([Draining] servers give up and
    retire instead, emitting [Crashed] then [Retired]). Crashing a
    [Down] or [Retired] server is a no-op returning []. The caller is
    responsible for not crashing the last dispatchable server when a
    workload remains (dispatchers raise when no server accepts
    work). *)
val crash_server : t -> int -> Query.t list

(** Change server [sid]'s service rate mid-run (brownout / recovery).
    The running query's remaining work is rescaled so its completion
    time stays consistent with the work already done at the old
    speed; [est_backlog] needs no adjustment (it is raw size, not
    speed-scaled — [est_free_at]/[est_work_left] pick the new speed
    up automatically). Emits [Restored] when [speed] equals the
    server's nominal rate, [Degraded speed] otherwise. No-op on
    [Down]/[Retired] servers or when the speed is unchanged. Raises
    [Invalid_argument] on a [speed] that is not finite and positive,
    and on one at which the running query's rescaled completion is not
    finite (a rate so small that its remaining work overflows); the
    server is then left as it was. An idle server takes any finite
    positive rate: a later start at a rate that makes the query's
    completion not finite (here, or through [add_server ?speed] or
    [~speeds]) raises [Invalid_argument] naming the server, the rate
    and the query, before the server changes. *)
val set_speed : t -> int -> speed:float -> unit

(** [degrade_server t sid ~factor] is [set_speed] to
    [factor *. nominal]. Raises [Invalid_argument] on a [factor] that
    is not finite and positive, or whose rate {!set_speed} refuses. *)
val degrade_server : t -> int -> factor:float -> unit

(** Repair server [sid]: a [Down] server rejoins the pool [Active] at
    its nominal speed (emitting [Restored]); a degraded
    [Active]/[Draining] server returns to nominal speed (via
    {!set_speed}). No-op otherwise. *)
val restore_server : t -> int -> unit

(** Re-enter a query through the dispatcher mid-run — crash retries
    ride the same path as drain redistribution: the dispatcher
    decides the target, [on_dispatch] observes the decision, and a
    declined query is recorded as a rejection. Only callable while
    {!run} is live (raises [Invalid_argument] otherwise). *)
val reinject : t -> Query.t -> unit

(** Estimated time the server finishes its current query (now if
    idle). *)
val est_free_at : t -> server -> float

(** Estimated remaining work: current query remainder plus buffered
    sizes (LWL's metric), computed as
    [(max now est_finish -. now) +. est_backlog /. speed]. O(1) —
    maintained incrementally. *)
val est_work_left : t -> server -> float

(** {2 Least-work index}

    [least_work t] is, for each speed class the index has seen, the
    dispatchable member with the least {!est_work_left}, ties to the
    lowest sid, or -1 when the class has none: one entry per class, in
    no particular order, all -1 when no server accepts work. The array
    is the index's own, overwritten by the next read: read it, do not
    keep or change it. Within a class the FCFS appended
    completion time [now + w + est/speed] never falls as the work left
    [w] grows, so that member also wins the FCFS SLA-tree rule (most
    profit, then least [w], then lowest sid): {!Dispatchers.lwl} and
    {!Dispatchers.fcfs_best} read this instead of visiting every
    server.

    The index is built at the first read, so a run that never reads it
    pays one branch per server change. Once built, a change to a
    server's [running], [est_backlog], [speed] or [state] marks the
    server, and a read places what changed: it places every server
    marked since the last read, once, from its fields at the read; a
    booting server waits there even past its ready time, so the read
    then promotes every booted server (as {!dispatchable} does) and
    places those, and last moves each server whose estimate ran out
    while its query still runs to the second order below. Invariant,
    after that upkeep: each
    [Active] server sits in its speed class, keyed by
    [est_finish +. est_backlog /. speed] when it is running and
    [est_finish >= now], else by [est_backlog /. speed] (its exact
    work left); each [Booting] server waits by ready time; no other
    server is indexed. The first order's keys can disagree with the
    computed work left in the last bits, so a read asks the exact
    {!est_work_left} of every member keyed within a rounding bound
    ([2^-48] relative) of the least key; targets and profit bits equal
    a scan of every server. That answer is the same for any placement
    that keeps the invariant, so placing at the read rather than at the
    change moves no answer.

    Cost: O(k + c) per read for [k] speed classes and [c] members near
    the least key, plus O(log m) for each server changed, booted or
    overrun since the last read, however often it changed; a change
    itself costs O(1). *)
val least_work : t -> int array

(** The canonical [drop_policy]: abandon queries whose last deadline
    has already passed (their penalty is sunk — footnote 2). *)
val drop_past_last_deadline : now:float -> Query.t -> bool

(** [run ~queries ~n_servers ~pick_next ~dispatch ~metrics ()] replays
    the arrival-sorted [queries] to completion. [on_dispatch] observes
    every dispatch decision (capacity planning and the elastic
    controller hook in here); [on_complete] observes every completion
    (per-class breakdowns hook in here). [on_server_event] observes the
    per-server buffer life cycle (fault injectors and the elastic
    controller hook in here). [speeds] makes the initial
    farm heterogeneous (Sec 6.2's claim): one finite positive rate per server,
    execution takes [size/speed]. [drop_policy ~now q = true] abandons
    buffered query [q] at a scheduling point instead of ever executing
    it (paper footnote 2's alternative; the query keeps its penalty).
    [ticker = (interval, f)] invokes [f] at every multiple of
    [interval] that precedes a remaining arrival or completion —
    elastic controllers call {!add_server}/{!retire_server} from
    there. [timers] is a sorted (by time, non-negative) array of
    one-shot callbacks fired exactly at their instants — before any
    tick, arrival or completion at the same time — while workload
    events remain; fault injectors call
    {!crash_server}/{!degrade_server}/{!restore_server} from there.
    [n_servers] is the initial pool size. [admit] is consulted on
    every arrival before the dispatcher (see {!verdict}); absent, every
    query is admitted.

    [obs] (default {!Obs.noop}) collects run-level observability:
    counters [sim.arrivals] / [sim.completions] / [sim.dropped] /
    [sim.rejected], and trace spans [arrive] / [complete] / [tick]
    (category ["sim"], simulated time in the span args). Handles are
    resolved once at run start; with the noop sink every site costs a
    single predictable branch. *)
val run :
  ?obs:Obs.t ->
  ?admit:admit ->
  ?on_dispatch:(now:float -> Query.t -> decision -> unit) ->
  ?on_complete:(Query.t -> completion:float -> unit) ->
  ?on_server_event:(sid:int -> now:float -> server_event -> unit) ->
  ?speeds:float array ->
  ?drop_policy:(now:float -> Query.t -> bool) ->
  ?ticker:float * (t -> unit) ->
  ?timers:(float * (t -> unit)) array ->
  queries:Query.t array ->
  n_servers:int ->
  pick_next:pick_next ->
  dispatch:dispatch ->
  metrics:Metrics.t ->
  unit ->
  unit

(** {2 Live sessions}

    The event loop behind {!run}, exposed as a stepping API so a
    long-running process (the [lib/serve] daemon) can drive the
    identical decision state machine from externally arriving queries.
    {!run} itself is [inject] per query followed by [drain], which is
    what makes served decisions bit-identical to simulated ones by
    construction. *)

type session

(** Same parameters and semantics as {!run}, minus the workload: the
    caller feeds queries with {!inject} instead of handing over an
    array. All observer hooks, the drop policy, the ticker and the
    one-shot timers behave exactly as under {!run}. *)
val session :
  ?obs:Obs.t ->
  ?admit:admit ->
  ?on_dispatch:(now:float -> Query.t -> decision -> unit) ->
  ?on_complete:(Query.t -> completion:float -> unit) ->
  ?on_server_event:(sid:int -> now:float -> server_event -> unit) ->
  ?speeds:float array ->
  ?drop_policy:(now:float -> Query.t -> bool) ->
  ?ticker:float * (t -> unit) ->
  ?timers:(float * (t -> unit)) array ->
  n_servers:int ->
  pick_next:pick_next ->
  dispatch:dispatch ->
  metrics:Metrics.t ->
  unit ->
  session

(** The underlying pool (for probes, {!add_server} etc.). *)
val sim : session -> t

(** Process every timer, tick and completion due at or before [until]
    (in {!run}'s historical precedence: due timers first, then due
    ticks, then the earliest completion), leaving the clock at the
    last processed event. [until] earlier than the current clock is a
    no-op — time is monotone. [until = infinity] is {!drain}: timers
    and ticks then fire only while a completion is pending. *)
val advance : session -> until:float -> unit

(** [advance] to the query's arrival, then run the full arrival path
    (dispatch, metrics, observers — exactly {!run}'s). A query whose
    stamped arrival the clock has already passed (a lagging live
    client) arrives at the current clock instead, but keeps its
    stamped arrival as the SLA clock origin. *)
val inject : session -> Query.t -> unit

(** Time of the earliest pending internal event — completion, one-shot
    timer or tick — or [None] when the session holds no work and no
    armed timer ([None] means {!advance} cannot change anything until
    the next {!inject}). A serving loop derives its poll timeout from
    this. *)
val next_event_time : session -> float option

(** Run every remaining completion (timers and ticks that precede them
    included) to quiescence: afterwards no query is running or
    buffered anywhere. *)
val drain : session -> unit
