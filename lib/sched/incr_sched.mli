(** Incremental FCFS+SLA-tree scheduling state (paper Sec 9's future
    work, wired into the simulator's scheduling loop).

    One live {!Incr_sla_tree} per server mirrors [running + buffer] in
    FCFS order: [pop_head ?actual] on completion, [append] on
    enqueue, [reset_origin] when an idle gap ends. At each scheduling
    point the tree already holds the buffer scheduled back-to-back
    from the decision time, so the rush decision runs without a
    per-decision [Sla_tree.build]; a reset happens only when the cheap
    update cannot represent the change (a rush out of FCFS order, or
    drop-policy removals).

    Picks are identical to {!Schedulers.with_sla_tree} over
    {!Planner.fcfs} — the equivalence tests drive both paths over
    randomized workloads, tenant tier gains included, and assert pick
    equality.

    [hook] must be passed as [Sim.run]'s [on_server_event]; [pick] is
    the matching [pick_next]. A reconstruction resets the server's tree
    in place, which builds nothing until its probes pay for a build.
    Driven without the hook, [pick] reconstructs on every decision
    until the hook delivers its first event, i.e. it degrades to the
    rebuild-per-decision path with the same picks. *)

type t

(** When [obs] is enabled, every live tree reports its rebuild/append/
    pop and what-if probe counts into the sink's registry. *)
val create : ?obs:Obs.t -> unit -> t

(** Feed one simulator event into the per-server state. *)
val hook : t -> sid:int -> now:float -> Sim.server_event -> unit

(** The FCFS+SLA-tree decision over the live tree of the server whose
    completion is being handled. *)
val pick : t -> Sim.pick_next

(** Diagnostics: decisions answered from the live tree vs decisions
    that needed a full reconstruction. *)
val fast_decisions : t -> int

val rebuilt_decisions : t -> int
