(** Online arrival-rate forecasting for the elastic controller.

    A forecaster is fed one sample per controller tick — any
    per-window rate: an arrival count, or (what the predictive policy
    actually feeds it) the window's margin-priced gain — and asked
    for the expected sample [h] ticks ahead, the window that starts
    once a server booted {e now} would come online. Two models:

    - {!ewma}: exponentially weighted moving average — a level-only
      model, horizon-independent. Robust default when the signal has
      no usable shape.
    - {!holt_winters}: additive Holt–Winters (level + trend +
      seasonal), with the seasonal period in ticks matched to the
      workload's cycle (the elasticity experiment's diurnal schedule
      gives the controller 24 decisions per period, so [season = 24]).
      Until one full season has been observed it falls back to an
      EWMA level; from then on every update is O(1).

    All state is explicit and every update deterministic, so a run
    that feeds the forecaster from a deterministic tick sequence stays
    byte-identical at any [-j].

    {!Oracle} is the offline counterpart: a perfect-foresight pool
    schedule computed from the full query trace, used as the upper
    bound in the reactive-vs-predictive-vs-oracle comparison. *)

type t

(** [ewma ~alpha ()] — level [l <- alpha*y + (1-alpha)*l], seeded by
    the first sample. Default [alpha = 0.4] (heavier than the classic
    0.1–0.3 because the controller takes only 24 samples per diurnal
    period). Raises [Invalid_argument] unless [0 < alpha <= 1]. *)
val ewma : ?alpha:float -> unit -> t

(** The largest season {!holt_winters} and {!of_spec} accept: the model
    keeps two season-long float arrays. *)
val max_season : int

(** [holt_winters ~season ()] — additive Holt–Winters with [season]
    ticks per cycle. Defaults: [alpha = 0.35], [beta = 0.1],
    [gamma = 0.3]. Raises [Invalid_argument] unless
    [2 <= season <= max_season] and each smoothing weight is in
    (0, 1]. *)
val holt_winters :
  ?alpha:float -> ?beta:float -> ?gamma:float -> season:int -> unit -> t

(** ["ewma(0.40)"] or ["hw(24)"] — for labels and trace args. *)
val name : t -> string

(** Feed one sample (any non-negative per-tick level). *)
val observe : t -> float -> unit

(** Samples observed so far. *)
val n_obs : t -> int

(** The model has enough history to forecast shape: one sample for
    EWMA, one full season for Holt–Winters (before that its forecast
    is a smoothed level that can never anticipate a rise). *)
val ready : t -> bool

(** Expected sample [horizon >= 1] ticks ahead. 0 before the first
    observation; may go negative once a Holt–Winters trend points
    down — callers forecasting a rate should clamp at 0. Raises
    [Invalid_argument] on [horizon < 1]. *)
val predict : t -> horizon:int -> float

(** Parse a forecaster spec: ["ewma"], ["ewma:ALPHA"], ["hw:SEASON"],
    or ["hw:SEASON:ALPHA:BETA:GAMMA"]. A season is an integer in
    [\[2, max_season\]] and a weight a number in (0, 1]; an error names
    the part that breaks its rule (e.g. [season "1000000000" exceeds
    the cap of 100000]). *)
val of_spec : string -> (t, string) result

(** Grammar accepted by {!of_spec}, for [--help] texts. *)
val spec_doc : string

(** Offline perfect-foresight pool schedules — the oracle the online
    policies are compared against. *)
module Oracle : sig
  type schedule

  (** [schedule ~queries ~interval ~lead ~rho ~min_servers
      ~max_servers ()] buckets the trace's {e true} offered work
      (actual service demand, not estimates) into [interval]-wide
      windows and sizes the pool so each window runs at utilization
      [rho]: [needed(w) = ceil(work(w) / interval / rho)], clamped to
      the pool bounds. [lead] is the boot delay the schedule must
      hide: the target at decision time [t] is the maximum need over
      the windows covered by [t .. t + lead + interval], so capacity
      requested now is ready when that demand lands. Raises
      [Invalid_argument] on a non-positive [interval] or [rho], a
      negative [lead], or bad pool bounds. *)
  val schedule :
    queries:Query.t array ->
    interval:float ->
    lead:float ->
    rho:float ->
    min_servers:int ->
    max_servers:int ->
    unit ->
    schedule

  (** Pool target at decision instant [now]. After the last arrival
      the target decays to [min_servers]. *)
  val target : schedule -> now:float -> int

  (** The utilization grid {!val:schedule} is swept over when the
      caller wants the best offline candidate, densest around the
      0.7–0.9 band where queueing delay starts to eat profit. *)
  val rho_candidates : float array
end
