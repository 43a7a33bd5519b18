(** Queries: arrival time, execution time (actual and estimated) and an
    SLA.

    All profit-oriented decisions (scheduling, dispatching, the SLA-tree
    itself) see only [est_size]; the simulator charges [size]. The two
    coincide unless an estimation-error model is applied (Sec 7.5). *)

type t = private {
  id : int;  (** position in arrival order; unique per trace *)
  arrival : float;  (** absolute arrival time *)
  size : float;  (** actual execution time *)
  est_size : float;  (** execution time visible to decision makers *)
  sla : Sla.t;
  retries : int;
      (** crash re-injections so far; the SLA clock still runs from
          [arrival] (see {!retried}) *)
  tenant : int;
      (** owning tenant id; [0] is the anonymous single-tenant
          default, so pre-tenancy call sites behave unchanged *)
}

(** [make ~id ~arrival ~size ~sla ()] builds a query; [est_size]
    defaults to [size], [retries] and [tenant] to [0]. Raises
    [Invalid_argument] on negative or non-finite (NaN, infinite) times
    or a negative tenant. *)
val make :
  ?est_size:float -> ?retries:int -> ?tenant:int -> id:int -> arrival:float ->
  size:float -> sla:Sla.t -> unit -> t

(** The retry copy a crashed query re-enters the dispatcher as:
    identical except [retries] is incremented. Crucially the original
    [arrival] is kept, so deadlines, profit and response time keep
    being measured from the first arrival — a crash never resets the
    SLA clock. *)
val retried : t -> t

(** Absolute deadline for an SLA level bound. *)
val deadline : t -> bound:float -> float

(** Absolute deadline of the first (best) SLA level. *)
val first_deadline : t -> float

(** Profit if the query completes at absolute time [completion]. *)
val profit_at : t -> completion:float -> float

(** Loss vs the ideal world at absolute time [completion]. *)
val loss_at : t -> completion:float -> float

(** Profit when the first deadline is met. *)
val ideal_profit : t -> float

val compare_by_id : t -> t -> int
val pp : Format.formatter -> t -> unit
