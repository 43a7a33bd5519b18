(** Fault injection and resilience: crashes, brownouts and repairs
    driven into a live {!Sim.run} through its [timers] hook.

    A {e plan} is a time-sorted script of fault events, either written
    by hand ({!scripted}, or parsed from a CLI spec with
    {!plan_of_spec}) or drawn from a per-server MTTF/MTTR exponential
    failure model ({!random_plan}). An {e injector} ({!create}) turns
    a plan into [Sim.run ~timers] callbacks that fire
    {!Sim.crash_server} / {!Sim.degrade_server} /
    {!Sim.restore_server} at the scripted instants, applies the retry
    policy to crash orphans, and measures time-to-recover.

    Determinism: the random model draws from {!Prng.split_key}
    sub-streams (one per server, keyed by server id) of a generator
    owned by the plan alone, so enabling faults never perturbs the
    workload's random stream — and two runs of the same plan over the
    same workload produce byte-identical metrics.

    Retry semantics (paper Sec 6 profit model): a crash orphan that is
    re-injected keeps its {e original} arrival time
    ({!Query.retried}), so its deadlines keep passing and its profit
    keeps bleeding while it waits again — a crash never resets the SLA
    clock. Orphans over the retry cap (or all orphans under
    [requeue = false]) are {e lost}: the provider pays the SLA penalty
    ({!Metrics.record_lost}). *)

type event =
  | Crash of { at : float; sid : int }
  | Degrade of { at : float; sid : int; factor : float }
      (** brownout: service rate becomes [factor *. nominal] *)
  | Restore of { at : float; sid : int }
      (** repair: [Down] rejoins the pool; a degraded server returns
          to nominal speed *)

(** An event's [sid] names a pool {e slot}: at fire time the injector
    resolves it to the [sid]-th non-retired server. On a static pool
    that is exactly server [sid]; under an autoscaler the machine
    occupying the slot fails, whichever server the controller
    currently runs on it (a slot beyond the live pool is counted as
    skipped). *)

val event_time : event -> float
val pp_event : Format.formatter -> event -> unit

(** A fault plan: events sorted by time (ties in script order). *)
type plan = event list

(** Validate and time-sort a hand-written script. Raises
    [Invalid_argument], naming the event and the rule it breaks, on a
    time that is not finite or is negative, a negative server id, or a
    degrade factor that is not finite or below [1e-6] (a smaller one
    halts rather than slows the server, and can stretch the running
    query's completion past every float). *)
val scripted : event list -> plan

(** Draw a plan from an exponential failure model: each of the
    [n_servers] initial servers alternates up-time
    ([Prng.exponential ~mean:mttf]) and repair-time
    ([~mean:mttr]) on its own {!Prng.split_key} sub-stream (keyed by
    server id), until [horizon]. Each failure is a full crash with
    probability [1 - degrade_prob] (default [degrade_prob = 0.]) and
    otherwise a brownout to [degrade_factor] (default [0.5]); either
    way a [Restore] follows one repair-time later (repairs beyond the
    horizon are kept — a fault must never be permanent by accident).
    Servers added mid-run by an autoscaler are not in the plan.
    Raises [Invalid_argument] on an [mttf], [mttr] or [horizon] that
    is not finite, a non-positive [mttf]/[mttr], or parameters outside
    their ranges ([degrade_factor] in [[1e-6, 1]]). *)
val random_plan :
  ?degrade_prob:float ->
  ?degrade_factor:float ->
  seed:int ->
  horizon:float ->
  n_servers:int ->
  mttf:float ->
  mttr:float ->
  unit ->
  plan

(** What happens to a crash orphan: with [requeue] (default) it
    re-enters the dispatcher as a {!Query.retried} copy while its
    retry count is below [max_retries]; otherwise (and beyond the cap)
    it is lost. *)
type retry_policy = { max_retries : int; requeue : bool }

(** [{ max_retries = 3; requeue = true }] *)
val default_retry : retry_policy

type stats = {
  crashes : int;  (** crash events that actually killed a server *)
  degrades : int;
  restores : int;
  skipped : int;
      (** events skipped: the target was already down/retired, or the
          crash would have left no dispatchable server (dispatchers
          raise when nothing accepts work, so the injector never
          strands the workload) *)
  retries : int;  (** orphans re-injected through the dispatcher *)
  lost : int;  (** orphans dropped on the floor (see {!finalize}) *)
  recoveries : (float * float) list;
      (** per resolved crash: (crash time, time-to-recover). A crash
          resolves at the first completion after it at which the
          pool's total estimated backlog is back at or below its
          pre-crash level. Crashes the run ends before resolving are
          absent. *)
}

(** Mean time-to-recover over resolved crashes; NaN when none. *)
val mean_time_to_recover : stats -> float

val pp_stats : Format.formatter -> stats -> unit

(** A plan instantiated against one run. Single-use: create one
    injector per [Sim.run]. *)
type t

(** [obs] (default {!Obs.noop}) receives counters [fault.crashes] /
    [fault.degrades] / [fault.restores] / [fault.retries] /
    [fault.lost] / [fault.skipped] and trace instants [fault.crash]
    (args: sid, orphaned/retried/lost counts), [fault.degrade] (args:
    sid, factor) and [fault.restore] (category ["fault"], simulated
    time in the args) — handles resolved once here, the usual
    zero-cost discipline. *)
val create : ?obs:Obs.t -> ?retry:retry_policy -> plan:plan -> unit -> t

(** The [Sim.run ~timers] array realising the plan. *)
val timers : t -> (float * (Sim.t -> unit)) array

(** Wire into [Sim.run ~on_server_event] (alongside any scheduler
    hook): watches completions to resolve time-to-recover. *)
val on_server_event : t -> sid:int -> now:float -> Sim.server_event -> unit

(** Account the orphans the retry policy declared lost into the run's
    metrics ({!Metrics.record_lost}) — call once after [Sim.run]
    returns, before reading the metrics. Kept out of the hot path so
    the injector works with harnesses that create their metrics
    internally (e.g. {!Elastic.run}). Raises [Invalid_argument] when
    called twice. *)
val finalize : t -> Metrics.t -> unit

val stats : t -> stats

(** Parse a [--faults] CLI spec into a plan. Grammar:
    - ["none"] — the empty plan;
    - ["moderate"] / ["severe"] (optionally [":<seed>"]) — presets of
      the random model scaled to [horizon] (moderate: brownouts only,
      about one per server, quick repairs; severe: full crashes with
      MTTF a third of the horizon and much slower repairs, 30%
      brownouts mixed in);
    - ["mttf=<t>,mttr=<t>[,degrade=<p>][,factor=<f>][,seed=<n>]"] —
      the random model with explicit parameters (times in simulated
      seconds; default seed 97);
    - ["crash@<t>:<sid>"] / ["degrade@<t>:<sid>:<factor>"] /
      ["restore@<t>:<sid>"] joined by [";"] — an explicit script.

    Raises [Invalid_argument] (with a message naming the offending
    part) on anything else. *)
val plan_of_spec : string -> horizon:float -> n_servers:int -> plan

(** One-line summary of the spec grammar (CLI help text). *)
val spec_doc : string
