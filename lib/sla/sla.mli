(** Stepwise service level agreements (paper Sec 2.1, Fig 3).

    An SLA maps a query's response time (completion minus arrival) to
    the provider's profit: a decreasing staircase of gains followed by a
    penalty once the last deadline is missed. A value is immutable and
    may be shared by any number of queries. *)

(** One step: finishing within [bound] of arrival earns [gain]. *)
type level = { bound : float; gain : float }

type t

exception Invalid of string

(** [make ~levels ~penalty] validates and builds an SLA. Bounds must be
    positive and strictly increasing, gains strictly decreasing, and the
    last gain at least [-penalty]; every number finite and
    [penalty >= 0]. Raises {!Invalid} otherwise. *)
val make : levels:level list -> penalty:float -> t

(** {!make} over the staircase's float arrays, with the same validation
    and the same messages: [bounds] holds the levels' bounds and [gains]
    their gains, with one slot more, into which [of_array] writes
    [-penalty]. The SLA keeps both arrays: the caller must not mutate
    them afterwards. *)
val of_array : bounds:float array -> gains:float array -> penalty:float -> t

(** g/0 profit model (Fig 3b). *)
val single_step : bound:float -> gain:float -> t

(** 1/0 profit model (Fig 3c). *)
val one_zero : bound:float -> t

(** The levels as records, best first: for reports, files and tests.
    The hot readers use {!bounds} and {!gains}. *)
val levels : t -> level list

val num_levels : t -> int

(** [level t i] is the [i]th level, best first ([0 <= i < num_levels t]),
    built on each call. *)
val level : t -> int -> level

(** The levels' bounds, best first. Callers must not mutate it. *)
val bounds : t -> float array

(** The levels' gains, best first, then [-penalty]: one slot more than
    {!bounds}. Callers must not mutate it. *)
val gains : t -> float array

val penalty : t -> float

(** Gain of the first (best) level — the "ideal world" profit. *)
val max_gain : t -> float

(** Bound of the first level. *)
val first_deadline : t -> float

(** Bound of the last level, after which the penalty applies. *)
val last_deadline : t -> float

(** [profit t ~response] is the provider's profit when the query is
    answered [response] time units after arrival (on-time inclusive). *)
val profit : t -> response:float -> float

(** [max_gain t - profit t ~response]: the paper's reported metric. *)
val loss_vs_ideal : t -> response:float -> float

(** A g/0 component of the decomposition: earns [comp_gain] iff the
    response is within [comp_bound]. *)
type component = { comp_bound : float; comp_gain : float }

(** [decompose t] rewrites the SLA as a constant offset ([-penalty])
    plus a sum of positive g/0 components (Sec 4.2, Fig 8). Components
    are ordered by increasing bound; a level whose gain equals the next
    step's makes none. The records are built on each call. *)
val decompose : t -> component list * float

(** The components' bounds, ascending, precomputed at {!make} time.
    Callers must not mutate it. *)
val comp_bounds : t -> float array

(** The components' gains, in {!comp_bounds}' order. Callers must not
    mutate it. *)
val comp_gains : t -> float array

(** [Array.length (comp_bounds t)]. *)
val num_components : t -> int

(** [add_postpone_loss t ~arrival ~completion ~tau acc] adds to [acc],
    one at a time in component order, the gain of every component whose
    slack at [completion], [(arrival + bound) - completion], lies in
    [\[0, tau)]: what postponing a query of [t] that arrived at
    [arrival] and completes at [completion] by [tau] loses. *)
val add_postpone_loss :
  t -> arrival:float -> completion:float -> tau:float -> float -> float

(** [write_units t ~arrival ~completion ~keys ~unit_gains ~at] writes one
    slack unit per component from index [at]: its slack
    [(arrival + bound) - completion] into [keys] and its gain into
    [unit_gains]. Returns [at + num_components t]. *)
val write_units :
  t ->
  arrival:float ->
  completion:float ->
  keys:float array ->
  unit_gains:float array ->
  at:int ->
  int

(** Inverse of {!decompose}; equals [profit] for every response time. *)
val profit_of_decomposition : component list * float -> response:float -> float

(** [expected_profit_exp t ~elapsed ~rate] is [E(profit (elapsed + X))]
    for [X ~ Exp(rate)] — the closed-form integral behind the CBS
    baseline's priority. One [exp] per level past [elapsed]: each
    level's survival term is evaluated once and reused by the next
    level and the penalty. *)
val expected_profit_exp : t -> elapsed:float -> rate:float -> float

val expected_loss_exp : t -> elapsed:float -> rate:float -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
