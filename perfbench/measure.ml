(* Shared measurement plumbing: wall clock, order statistics, metric
   records, output checks and GC snapshots. Every timing in the
   benchmark reads the host monotonic clock ([Obs.now_ns]). *)

let now_ns () = Int64.to_int (Obs.now_ns ())
let secs ns = Float.of_int ns /. 1e9

(* [timed f] is [(f (), wall seconds)]. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs (now_ns () - t0))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. Float.of_int n)) - 1)))

let percentile a p = percentile_sorted (sorted a) p

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. Float.of_int (Array.length a)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Outcome of one workload run: operations attempted and failed, the
   failed output checks by name, and the metrics. *)
type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the metrics *)
}

(* Accumulates named output checks; a failed check counts as one failed
   operation. *)
type checks = { mutable failed : string list }

let checks () = { failed = [] }
let check c name ok = if not ok then c.failed <- name :: c.failed
let failures c = List.rev c.failed

(* Bit-exact identity of a run's accounting: every counter plus the bit
   patterns of the float aggregates. *)
let fingerprint m =
  let b f = Int64.bits_of_float f in
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%Lx/%Lx/%Lx/%Lx/%Lx"
    (Metrics.offered_count m) (Metrics.admitted_count m)
    (Metrics.rejected_count m) (Metrics.completed_count m)
    (Metrics.dropped_count m) (Metrics.lost_count m) (Metrics.measured_count m)
    (Metrics.late_count m)
    (b (Metrics.total_profit m)) (b (Metrics.avg_loss m))
    (b (Metrics.avg_response m)) (b (Metrics.rejected_loss m))
    (b (Metrics.avg_profit m))

(* offered = admitted + rejected; admitted = completed + dropped + lost
   (the run is drained, so nothing is in flight). *)
let conserved m =
  Metrics.offered_count m = Metrics.admitted_count m + Metrics.rejected_count m
  && Metrics.admitted_count m
     = Metrics.completed_count m + Metrics.dropped_count m + Metrics.lost_count m

let top_heap_mb () =
  let s = Gc.quick_stat () in
  Float.of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type gc_delta = {
  peak_heap_mb : float;  (** top of heap right after the pass *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_around f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    {
      peak_heap_mb = top_heap_mb ();
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* The GC's view of the first untraced pass. Nothing traced has run
   before it, so its top of heap is the untraced program's. *)
let gc_metrics ~queries d =
  let q = Float.of_int (max 1 queries) in
  [
    metric "gc.peak_heap_mb" "MB" d.peak_heap_mb;
    metric "gc.minor_words_per_query" "words" (d.minor_words /. q);
    metric "gc.promoted_words_per_query" "words" (d.promoted_words /. q);
    metric "gc.minor_collections" "count" (Float.of_int d.minor_collections);
    metric "gc.major_collections" "count" (Float.of_int d.major_collections);
  ]

(* Runs [setup] [n] times and returns the last result with the median
   wall time; earlier results are dropped before the next repeat so
   the heap holds one input set at a time. *)
let repeat_setup n setup =
  let times = Array.make n 0.0 in
  let last = ref None in
  for i = 0 to n - 1 do
    last := None;
    let v, dt = timed setup in
    times.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, median times)

(* Host speed. On a shared virtual machine the speed of a core swings
   by a third over tens of seconds, which would drown the program's own
   changes between runs. So every run also times a fixed reference
   kernel, written here and independent of the program, between its
   passes, and reports times in reference seconds: wall seconds scaled
   by [ref_nominal_s] over the kernel's mean time in the run. A
   program change moves the reported times exactly as it moves wall
   time; a host that runs the kernel slower scales them back. The raw
   wall-clock figures and the factor are printed next to the metrics. *)

let ref_data = Array.init 16_384 (fun i -> (i * 2654435761) land 0xffffff)
let ref_nominal_s = 0.005

let ref_kernel () =
  let b = Array.copy ref_data in
  let t0 = now_ns () in
  Array.sort Int.compare b;
  secs (now_ns () - t0)

type host = { mutable samples : float list }

let host () = { samples = [] }

let sample_host h =
  for _ = 1 to 10 do
    h.samples <- ref_kernel () :: h.samples
  done

(* Reference seconds per wall second in this run: the mean kernel time,
   like the summed pass times it scales, weighs slow and fast spells by
   their length. *)
let speed_factor h = ref_nominal_s /. mean (Array.of_list h.samples)

(* Run [pass] until [seconds] of wall clock have been spent in it, at
   least [min_passes] times, sampling the host speed before and after
   every pass; returns the results in order. *)
let passes ~host ~seconds ~min_passes pass =
  let budget = int_of_float (seconds *. 1e9) in
  let t0 = now_ns () in
  sample_host host;
  let rec go acc k =
    if k >= min_passes && now_ns () - t0 >= budget then List.rev acc
    else begin
      let r = pass () in
      sample_host host;
      go (r :: acc) (k + 1)
    end
  in
  go [] 0

(* The end-to-end metrics every workload reports, times in reference
   seconds: [work] queries over the summed pass [walls], the mean of the
   passes' median decision latencies, the run's loss per query and its
   set-up time. *)
let end_to_end ~host ~work ~walls ~p50s_us ~loss ~setup_s =
  let f = speed_factor host in
  let qps = Float.of_int work /. List.fold_left ( +. ) 0.0 walls in
  let p50 = mean (Array.of_list p50s_us) in
  ( [
      metric "queries_per_s" "1/s" (qps /. f);
      metric "decision_p50_us" "us" (p50 *. f);
      metric "loss_per_query" "usd" loss;
      metric "setup_s" "s" (setup_s *. f);
    ],
    [
      Printf.sprintf
        "wall clock: %.6g queries/s, decision p50 %.6g us, setup %.6g s; %.4f \
         reference s per wall s"
        qps p50 setup_s f;
    ] )
