(** Schedulers: named [Sim.pick_next] policies.

    Baselines execute the head of their planner's order; SLA-tree
    variants re-rank the whole buffer through the what-if analysis of
    paper Sec 6.1 on every decision. Every scheduler is stateless: a
    pick reads only the buffer it is handed, so one pick function may
    serve any number of servers. *)

type t

val name : t -> string

(** A server-event hook. No scheduler has one any more; the type stays
    only because perfbench names it. *)
type hook = sid:int -> now:float -> Sim.server_event -> unit

(** A pick function for one run, and [None]. When [obs] is an enabled
    sink, the pick records per-decision latency ([sched.decision_ns]
    histogram, [sched.decisions] counter) and an SLA-tree variant
    counts each rush probe into [whatif.postpone_calls]; over the
    default {!Obs.noop} the unwrapped pick is returned. The
    always-[None] hook half stays only because perfbench destructures
    it. *)
val instantiate : ?obs:Obs.t -> t -> Sim.pick_next * hook option

(** [fst (instantiate t)]: the pick over {!Obs.noop}. *)
val pick : t -> Sim.pick_next

(** Run the head of the planner's order. The head is found in one
    pass over the planner's key array ({!Planner.head}); no plan is
    sorted, and FCFS's head is 0 without a look at the buffer. *)
val of_planner : Planner.t -> t

(** Rush [argmax_i (own_gain_i - postpone(0, i-1, est_size_i))] over
    the planner's order ({!What_if.best_rush_planned}). A sorting
    planner's pick sorts the buffer's indices by its key array
    ({!Planner.plan}) and scans the planned copy. Over {!Planner.fcfs},
    whose order is the buffer's, the pick reads the buffer in place and
    copies nothing. *)
val with_sla_tree : Planner.t -> t

val fcfs : t
val sjf : t
val edf : t
val value_edf : t
val cbs : rate:float -> t
val fcfs_sla_tree : t

(** [fcfs_sla_tree] under its former name, kept only because perfbench
    names it. *)
val fcfs_sla_tree_incr : t

val sjf_sla_tree : t
val edf_sla_tree : t
val value_edf_sla_tree : t
val cbs_sla_tree : rate:float -> t
