(** Multi-tenant economics: tenant profiles and SLA classes, a
    probe-priced admission controller for {!Sim}'s [?admit] hook, and
    per-tenant accounting (profit, Jain fairness, SLO burn-rate
    windows).

    Tenant assignment and the SLA a tenant's query carries are pure
    functions of (registry seed, query id) — the {!Sla_synth} keyed
    draw discipline — so tagging a workload is deterministic under any
    chunking, tiling or [-j].

    The admission controller prices an arriving query with the
    {e postpone} question ({!Dispatchers.insertion_profit}) on the
    server the FCFS dispatcher picks ({!Dispatchers.fcfs_best}): the
    query's own attainable profit at its slot in an EDF plan there
    minus the postpone loss it inflicts on everything already buffered
    behind that slot. One question builds no SLA-tree: it is answered
    by a scan over the queries the newcomer displaces, and the query
    and its degraded copy are priced against one plan of the buffer.
    Nets below the margin are re-priced one SLA class down (degrade)
    and rejected only when even the cheaper copy prices negative. *)

(** {2 Profiles and the registry} *)

type profile = private {
  tenant : int;  (** assigned by {!registry}: index + 1; 0 = anonymous *)
  pname : string;
  cls : int;  (** index into the synthesis config's class ladder *)
  tier : float;  (** price multiplier on the class's gains and penalty *)
  share : int;  (** relative arrival weight for assignment *)
  slo_late : float;  (** error budget: tolerated late fraction *)
}

(** Validating constructor; defaults [tier = 1.0], [share = 1],
    [slo_late = 0.1]. The [tenant] field is assigned by {!registry}. *)
val profile :
  ?tier:float ->
  ?share:int ->
  ?slo_late:float ->
  name:string ->
  cls:int ->
  unit ->
  profile

type registry = private {
  profiles : profile array;
  synth : Sla_synth.config;  (** class ladder + stretches behind the SLAs *)
  seed : int;
}

(** [registry profiles] numbers the profiles 1..n and validates every
    class index against [synth]'s ladder. *)
val registry :
  ?seed:int -> ?synth:Sla_synth.config -> profile array -> registry

(** Three tenants over the default gold/silver/bronze ladder: a small
    1.5x-paying gold tenant (5% error budget), a mid-size silver
    tenant, and a large discounted bronze batch tenant (25%). *)
val default_registry : unit -> registry

val n_tenants : registry -> int
val find : registry -> tenant:int -> profile option

(** The stepwise SLA tenant [p] buys for an estimate: class ladder
    [cls] with gains and penalty scaled by [p.tier]. *)
val sla_for : registry -> profile -> cls:int -> est:float -> Sla.t

(** {2 Tenant assignment} *)

(** The tenant the query with [id] is assigned to — a pure function of
    (registry seed, id). *)
val tenant_of : registry -> id:int -> int

(** Tag every query with its tenant and that tenant's tier-scaled SLA
    (sizes, estimates and arrivals are untouched). *)
val assign : registry -> Query.t array -> Query.t array

(** Streaming {!assign}. *)
val assign_seq : registry -> Query.t Seq.t -> Query.t Seq.t

(** {2 Per-tenant accounting} *)

module Acct : sig
  type t

  val create : registry -> warmup_id:int -> t

  (** Admission-side counters (the admission controller drives these;
      drive them directly on admission-off runs). *)
  val on_offered : t -> Query.t -> unit

  val on_admitted : t -> Query.t -> unit
  val on_degraded : t -> Query.t -> unit
  val on_rejected : t -> Query.t -> unit

  (** Wire as [Sim]'s [on_complete]; queries with [id < warmup_id]
      count as completed but are not measured. *)
  val on_complete : t -> Query.t -> completion:float -> unit

  val total_profit : t -> float
  val total_rejected_value : t -> float

  (** Cumulative per-tenant sampler ([t<i>.measured] / [t<i>.late])
      feeding the burn-rate windows; call {!sample} from a ticker. *)
  val timeseries_columns : registry -> string array

  val timeseries : registry -> Obs.Timeseries.t
  val sample : t -> Obs.Timeseries.t -> now:float -> unit
end

(** {2 Admission} *)

type admission

(** [admission reg ~acct ()] builds the controller. [theta] (default
    0) is the required net margin in dollars. The postpone probe always
    prices insertion into an EDF plan ({!Planner.edf}), and a query
    below the margin is always re-priced one class down before it is
    rejected. *)
val admission : ?theta:float -> registry -> acct:Acct.t -> unit -> admission

(** Wire as [Sim]'s [?admit]. *)
val admit : admission -> Sim.t -> Query.t -> Sim.verdict

(** {2 Fairness and SLO burn rate} *)

(** Jain's index [(sum x)^2 / (n * sum x^2)] — 1.0 means perfectly
    even, 1/n means one tenant takes everything; 1.0 on empty or
    all-zero input. *)
val jain : float array -> float

type burn_window = {
  bw_label : string;
  bw_short_min : float;  (** confirmation window, canonical minutes *)
  bw_long_min : float;  (** budget window, canonical minutes *)
  bw_threshold : float;  (** page when both burns reach this *)
}

(** The four canonical pairs: 5m/1h @ 14.4x, 30m/6h @ 6x, 2h/1d @ 3x,
    6h/3d @ 1x. Mapped to virtual ms by anchoring 3 days to the run
    span. *)
val burn_windows : burn_window list

type burn = {
  window : burn_window;
  short_burn : float;  (** late fraction over the short window / budget *)
  long_burn : float;
  firing : bool;
}

(** Burn rates for [tenant] at end of run, read off an {!Acct}
    timeseries whose last sample is at [span]. *)
val burn_rates :
  registry -> Obs.Timeseries.t -> tenant:int -> span:float -> burn list

(** {2 Report} *)

type tenant_row = {
  r_tenant : int;
  r_name : string;
  r_offered : int;
  r_admitted : int;
  r_degraded : int;
  r_rejected : int;
  r_completed : int;
  r_measured : int;
  r_late : int;
  r_profit : float;
  r_ideal : float;
  r_attainment : float;  (** profit / ideal over measured work *)
  r_burns : burn list;
}

type report = {
  rows : tenant_row list;
  rep_profit : float;  (** summed measured per-tenant profit *)
  rep_rejected_value : float;  (** ideal profit turned away *)
  fairness : float;  (** Jain over per-tenant attainment *)
}

(** Burn columns are filled only when a timeseries and a positive
    [span] are supplied. *)
val report : ?timeseries:Obs.Timeseries.t -> ?span:float -> Acct.t -> report

val pp_burn : Format.formatter -> burn -> unit
val pp_row : Format.formatter -> tenant_row -> unit
val pp_report : Format.formatter -> report -> unit
