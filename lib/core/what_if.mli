(** The "what if" questions behind profit-oriented decisions
    (paper Sec 6). All profits use estimated execution times. *)

(** Profit change for query [i] itself if rushed to run at [now]
    instead of its scheduled slot. *)
val own_rush_gain : Sla_tree.t -> int -> float

(** Net profit change of rushing query [i] to the front: own gain minus
    [postpone(0, i-1, est_size_i)] (Sec 6.1). Zero for [i = 0]. *)
val rush_net_gain : Sla_tree.t -> int -> float

(** Best query to execute next and its net gain; ties keep the earliest
    position (so the original order wins when nothing improves).
    [None] on an empty buffer. A candidate whose own gain cannot beat
    the best net gain so far is not probed: its net gain is at most
    its own gain. The answer is the one {!rush_net_gain} at every
    position gives. *)
val best_rush : Sla_tree.t -> (int * float) option

(** [best_rush_planned ~now planned] is
    [best_rush (Sla_tree.build ~now planned)], but builds the tree only
    when some candidate's own gain passes the bound, at the first such
    candidate. *)
val best_rush_planned : now:float -> Query.t array -> (int * float) option

(** {!best_rush} over a live {!Incr_sla_tree} — identical answers and
    tie-breaking, without the per-decision rebuild. *)
val best_rush_incr : Incr_sla_tree.t -> (int * float) option

(** Net profit change of inserting [query] at buffer position [pos]:
    the newcomer's own profit minus the displaced queries' postpone
    loss (Sec 6.2). [pos] may equal the buffer length (append). *)
val insertion_delta : Sla_tree.t -> query:Query.t -> pos:int -> float

(** Profit the query would earn starting immediately on an idle server
    (the capacity-planning fiction of Sec 6.3). *)
val idle_server_profit : now:float -> Query.t -> float

(** Applications of [expedite] (the family the paper mentions in
    footnote 4 but cut for space). *)

(** [(tau, profit recovered if the whole buffer starts tau earlier)]
    for each requested [tau] — the marginal value of borrowed
    capacity. *)
val recovery_curve : Sla_tree.t -> taus:float list -> (float * float) list

(** Cheapest place to insert a maintenance pause: position [p] delays
    queries [p..N-1] by [duration]; returns the loss-minimizing
    position and its loss (ties resolve to the latest position;
    [latest_start] optionally bounds how late the pause may begin).
    [None] only when no position satisfies [latest_start]. *)
val best_maintenance_slot :
  ?latest_start:float -> Sla_tree.t -> duration:float -> (int * float) option

(** [(profit lost to an unplanned stall, portion clawed back by a
    catch-up speedup of the given magnitude)]. *)
val stall_impact : Sla_tree.t -> stall:float -> catch_up:float -> float * float
