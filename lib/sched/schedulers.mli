(** Schedulers: named [Sim.pick_next] policies.

    Baselines execute the head of their planner's order; SLA-tree
    variants re-rank the whole buffer through the what-if analysis of
    paper Sec 6.1 on every decision.

    Stateless policies can be used through {!pick} directly. Stateful
    ones (the incremental SLA-tree variant) must go through
    {!instantiate}, which returns a fresh pick function per run plus
    the server-event hook to pass as [Sim.run]'s [on_server_event]. *)

type hook = sid:int -> now:float -> Sim.server_event -> unit

type t

val name : t -> string

(** Fresh per-run pick function, plus the event hook the run must
    install when present ([None] for stateless schedulers). When [obs]
    is an enabled sink, the pick is wrapped to record per-decision
    latency ([sched.decision_ns] histogram, [sched.decisions] counter)
    and the incremental variant reports its SLA-tree and what-if probe
    counters; over the default {!Obs.noop} the unwrapped pick is
    returned. *)
val instantiate : ?obs:Obs.t -> t -> Sim.pick_next * hook option

(** Convenience for stateless schedulers: [fst (instantiate t)].
    For {!fcfs_sla_tree_incr} this still makes correct decisions —
    without its hook every decision reconstructs the tree, i.e. it
    degrades to the rebuild-per-decision path. *)
val pick : t -> Sim.pick_next

(** Run the head of the planner's order. *)
val of_planner : Planner.t -> t

(** Rush [argmax_i (own_gain_i - postpone(0, i-1, est_size_i))] over
    the planner's order. *)
val with_sla_tree : Planner.t -> t

(** [with_sla_tree Planner.fcfs] without the per-decision rebuild: one
    live [Incr_sla_tree] per server follows the buffer across
    decisions ([pop_head] on completion, [append] on dispatch,
    [reset_origin] on idle gaps). Identical picks, amortized cost. *)
val fcfs_sla_tree_incr : t

val fcfs : t
val sjf : t
val edf : t
val value_edf : t
val cbs : rate:float -> t
val fcfs_sla_tree : t
val sjf_sla_tree : t
val edf_sla_tree : t
val value_edf_sla_tree : t
val cbs_sla_tree : rate:float -> t
