(** Zero-cost observability: metrics registry, structured event
    tracing, and per-tick time series for the simulator stack.

    One {!t} sink is threaded through a run ([Sim.run ~obs], the
    scheduler/dispatcher [instantiate ~obs] factories, the elastic
    controller). Instrumentation sites resolve their handles once at
    instantiation and guard each hot-path hit with a single
    {!enabled} branch, so a run over the shared {!noop} sink pays one
    predictable branch per event and allocates nothing.

    See docs/OBSERVABILITY.md for the metric catalogue and the trace
    event schema. *)

(** Host monotonic clock, nanoseconds (bechamel's clock_gettime
    stub). All latency histograms and trace timestamps use it. *)
val now_ns : unit -> int64

(** Named counters, gauges and latency histograms. Handles are
    resolved by name once ({!Registry.counter} etc. return the
    existing instrument when the name is already registered, so
    subsystems instantiated repeatedly aggregate into shared series)
    and then hit without any lookup. *)
module Registry : sig
  type t
  type counter
  type gauge
  type histogram

  val create : unit -> t

  val counter : t -> string -> counter
  val gauge : t -> string -> gauge

  (** Default shape: log10 bins over 1 ns .. 10 s, 10 bins per decade.
      Shape arguments are ignored when [name] is already registered. *)
  val histogram :
    ?scale:Histogram.scale ->
    ?lo:float ->
    ?hi:float ->
    ?bins:int ->
    t ->
    string ->
    histogram

  val incr : counter -> unit
  val add : counter -> int -> unit
  val count : counter -> int
  val counter_name : counter -> string
  val set : gauge -> float -> unit
  val value : gauge -> float
  val gauge_name : gauge -> string
  val observe : histogram -> float -> unit
  val observations : histogram -> int
  val histogram_percentile : histogram -> float -> float
  val histogram_name : histogram -> string

  (** Zero every instrument in place (handles stay valid). *)
  val reset : t -> unit

  (** Snapshots, name-sorted. *)
  val counters : t -> (string * int) list

  val gauges : t -> (string * float) list
  val histograms : t -> (string * Histogram.t) list

  val pp : Format.formatter -> t -> unit

  (** [{"schema": "slatree-obs/1", "counters": {..}, "gauges": {..},
      "histograms": {name: {count, underflow, overflow, p50, p90,
      p99}}}] *)
  val to_json : t -> string
end

(** Bounded ring buffer of structured trace events: begin/end spans
    and instant events, timestamped on the host monotonic clock
    relative to trace creation. When the ring is full the oldest
    event is overwritten (and counted in {!Trace.dropped}); the
    export pass repairs any span nesting the eviction broke, so the
    emitted B/E stream is always well nested. Every event is on one
    thread, exported as [tid] 0. *)
module Trace : sig
  type value = F of float | I of int | S of string
  type phase = Begin | End | Instant

  type event = {
    phase : phase;
    name : string;
    cat : string;
    ts : int64;  (** ns since trace creation *)
    args : (string * value) list;
  }

  type t

  (** Default capacity: 65536 events. Capacity 0 drops everything. *)
  val create : ?capacity:int -> unit -> t

  val begin_span :
    t -> ?cat:string -> ?args:(string * value) list -> string -> unit

  val end_span : t -> unit

  val instant :
    t -> ?cat:string -> ?args:(string * value) list -> string -> unit

  (** Events currently held (<= capacity). *)
  val length : t -> int

  (** Events lost to ring eviction (or to capacity 0). *)
  val dropped : t -> int

  val iter : t -> (event -> unit) -> unit
  val events : t -> event list

  (** Chrome trace-event JSON ({["traceEvents": [...]]}), loadable in
      Perfetto / chrome://tracing. *)
  val to_chrome_json : t -> string

  (** One trace event object per line. *)
  val to_jsonl : t -> string
end

(** Append-only per-tick sampler: one float row per sample under fixed
    column names, exported as CSV ([t,col1,...]) or JSON. *)
module Timeseries : sig
  type t

  val create : columns:string array -> t
  val columns : t -> string array
  val length : t -> int

  (** [sample t ~now row] appends one row ([row] must match the column
      count). Sample times are expected non-decreasing. *)
  val sample : t -> now:float -> float array -> unit

  val time : t -> int -> float
  val row : t -> int -> float array

  (** Value of [column] at the last sample at or before [now]; NaN
      before the first sample. *)
  val value_at : t -> column:string -> now:float -> float

  val to_csv : t -> string
  val to_json : t -> string

  (** Writes JSON when [path] ends in [.json], CSV otherwise. *)
  val write : t -> path:string -> unit
end

type t

(** The permanently disabled sink — the default everywhere an [?obs]
    is accepted. *)
val noop : t

(** An enabled sink with a fresh registry and trace. *)
val create : ?trace_capacity:int -> unit -> t

val enabled : t -> bool
val registry : t -> Registry.t
val trace : t -> Trace.t

(** [span t name f] runs [f] inside a begin/end span ([f ()] directly
    when disabled; the span is closed even if [f] raises). *)
val span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a

(** Record an instant event (no-op when disabled). *)
val instant :
  t -> ?cat:string -> ?args:(string * Trace.value) list -> string -> unit

(** Write the registry snapshot as JSON. *)
val write_metrics : t -> path:string -> unit

(** Write the trace: JSONL when [path] ends in [.jsonl], Chrome
    trace-event JSON otherwise. *)
val write_trace : t -> path:string -> unit

(** {2 Teardown}

    Exporters register their final write with {!on_close}; one
    {!close} at exit — or from a SIGINT handler's shutdown path —
    flushes every registered output exactly once. This is what lets a
    daemon killed mid-run keep its tail timeseries samples. *)

(** Register a flusher, run by {!flush}/{!close} in registration
    order. Dropped (not stored) on the {!noop} sink and after
    {!close}. *)
val on_close : t -> (unit -> unit) -> unit

(** Run every registered flusher now (all of them, even if some
    raise — the first exception is re-raised afterwards). Flushers
    stay registered; safe to call repeatedly. No-op when disabled. *)
val flush : t -> unit

(** {!flush} once, then drop the flushers. Idempotent: later calls
    (and later {!on_close} registrations) are no-ops. *)
val close : t -> unit

val closed : t -> bool
