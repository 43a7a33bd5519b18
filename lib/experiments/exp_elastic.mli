(** Elasticity experiment: static-small vs static-large vs the
    reactive SLA-tree autoscaler vs queue-threshold vs the predictive
    (forecast-ahead) autoscaler vs the offline oracle, on cyclic
    workloads, all under one $/server-interval cost model. *)

(** Arrival shape of the workload (same duration-weighted mean load,
    so the static calibration is shared): the smooth diurnal cycle,
    an on/off square wave, or a steady control. *)
type shape = Steady | Diurnal | Square

val shape_name : shape -> string

(** [Diurnal; Square; Steady] — the order the comparison prints. *)
val all_shapes : shape list

type row = {
  label : string;
  initial : int;  (** initial pool size *)
  profit : float;
  server_time : float;  (** ms*servers actually provisioned *)
  cost : float;
  net : float;  (** profit - cost *)
  peak : int;
  low : int;
  ups : int;
  downs : int;
  avg_loss : float;
  late : float;
}

(** Row labels of the three-way comparison. *)
val reactive_label : string

val predictive_label : string
val oracle_label : string

(** Run every configuration on the same trace (programmatic entry
    point, used by tests and the bench JSON emitter): the two statics,
    the reactive SLA-tree autoscaler, the queue threshold, the
    predictive autoscaler, and the oracle — an offline
    perfect-foresight schedule swept over
    [Forecast.Oracle.rho_candidates], reported as its best-net
    candidate under {!oracle_label}. Default [shape] is [Diurnal]. *)
val rows :
  ?kind:Workloads.kind ->
  ?shape:shape ->
  scale:Exp_scale.t ->
  seed:int ->
  unit ->
  row list

val pp_row : Format.formatter -> row -> unit

(** What to run in single-policy mode. The spec is materialized
    against the generated workload: the predictive policy gets the
    obs sink and optional forecaster spec ({!Forecast.of_spec}) /
    horizon override; the oracle builds its perfect-foresight
    schedule from the trace (utilization [rho], default 0.8). *)
type policy_spec =
  | Spec_static
  | Spec_sla_tree
  | Spec_queue
  | Spec_predictive of { forecast : string option; horizon : int option }
  | Spec_oracle of { rho : float option }

(** The policy names {!policy_spec_of_string} knows. *)
val policy_names : string list

(** Parse a policy name with its knobs: [forecast] and [horizon] for
    ["predictive"], [rho] for ["oracle"]. A knob given to any other
    policy is an error naming its CLI option ([--forecast],
    [--horizon], [--oracle-rho]). *)
val policy_spec_of_string :
  ?forecast:string ->
  ?horizon:int ->
  ?rho:float ->
  string ->
  (policy_spec, string) result

(** Run one policy on the experiment's workload, printing the
    controller summary and the chronological scale-event log. [obs]
    and [timeseries] are threaded into {!Elastic.run} (the CLI's
    [--trace]/[--metrics]/[--timeseries] flags hook in here); for
    [Spec_predictive] the sink also reaches the policy's forecast
    gauges and instants. [faults] is a {!Fault.plan_of_spec} string
    (the [--faults] flag): the plan is realised over the trace's
    arrival span against the initial pool, and a fault summary line
    is printed. Raises [Invalid_argument] on a spec that fails to
    materialize (bad forecaster string, bad rho). *)
val run_policy :
  ?obs:Obs.t ->
  ?timeseries:Obs.Timeseries.t ->
  ?faults:string ->
  ?shape:shape ->
  Format.formatter ->
  policy:policy_spec ->
  initial:int ->
  Exp_scale.t ->
  unit

(** Print the comparison tables, one per {!all_shapes} entry (single
    seed: [scale.base_seed]), each ending with the three-way
    reactive/predictive/oracle summary line. *)
val run : Format.formatter -> Exp_scale.t -> unit
