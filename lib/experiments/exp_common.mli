(** Shared experiment plumbing: the evaluation's policy sets and the
    cell runner of the simulation grids. *)

type sched_kind = Fcfs | Fcfs_tree | Cbs | Cbs_tree

val sched_name : sched_kind -> string

(** 1 / (mean execution time) of the workload. *)
val cbs_rate : Workloads.kind -> float

val scheduler_of : sched_kind -> Workloads.kind -> Schedulers.t

(** The three dispatching rows of Table 3 (scheduler fixed per row). *)
type disp_kind = Lwl_cbs | Lwl_tree_sched | Tree_tree

val disp_name : disp_kind -> string
val dispatch_setup : disp_kind -> Workloads.kind -> Dispatchers.t * Schedulers.t

(** {1 The cell runner}

    Cells come back in spec order and repeats in repeat order at any
    worker count, and means fold in that order, so [-j N] reproduces
    the serial run's bits. *)

(** [f ~seed] on each repeat's {!Exp_scale.seed}, fanned out across the
    ambient [Parallel] pool, in repeat order. *)
val repeats : Exp_scale.t -> (seed:int -> 'a) -> 'a array

(** {!Stats} (Welford) mean in array order. *)
val mean : float array -> float

(** One run through fresh metrics (measured from query [warmup] on), a
    fresh dispatcher and a fresh simulator; the optional arguments are
    {!Sim.run}'s. *)
val run :
  ?speeds:float array ->
  ?drop_policy:(now:float -> Query.t -> bool) ->
  ?on_complete:(Query.t -> completion:float -> unit) ->
  n_servers:int ->
  scheduler:Schedulers.t ->
  dispatcher:Dispatchers.t ->
  warmup:int ->
  Query.t array ->
  Metrics.t

(** Every pair, [xs]-major. *)
val product : 'a list -> 'b list -> ('a * 'b) list

(** [cell profile kind col row] for every SLA profile, workload, column
    and row, in that order; whole cells fan out across the pool. *)
val grid :
  ?profiles:Workloads.sla_profile list ->
  ?kinds:Workloads.kind list ->
  cols:'c list ->
  rows:'r list ->
  (Workloads.sla_profile -> Workloads.kind -> 'c -> 'r -> 'cell) ->
  'cell list

(** Values keyed by (profile, kind, col, row) in the paper's layout: a
    column group per profile and workload; "-" for a missing key. *)
val grid_report :
  title:string ->
  cols:'c list ->
  col_name:('c -> string) ->
  rows:'r list ->
  row_name:('r -> string) ->
  ((Workloads.sla_profile * Workloads.kind * 'c * 'r) * float) list ->
  Report.t
