(* Outside-in span tracing for the traced run.

   Every call the benchmark makes (or hooks) into a layer boundary
   becomes one span: layer, start, end, parent span and the query id
   the call concerns. Spans live in per-domain growable int arrays,
   appended in begin order, so each buffer is a preorder of its
   domain's span forest and parents are plain indices. Nothing is
   formatted until the run ends. Counters for the per-layer extras
   sit next to the spans, also per domain, so worker domains never
   share a cache line with each other. *)

type layer =
  | Pass  (* one timed pass of the workload: the root *)
  | Sim
  | Schedulers
  | Incr_sla_tree
  | Dispatchers
  | Tenancy
  | Wire
  | Daemon
  | Loadgen
  | Parallel

let layers =
  [| Pass; Sim; Schedulers; Incr_sla_tree; Dispatchers; Tenancy; Wire; Daemon;
     Loadgen; Parallel |]

let n_layers = Array.length layers

let layer_index = function
  | Pass -> 0
  | Sim -> 1
  | Schedulers -> 2
  | Incr_sla_tree -> 3
  | Dispatchers -> 4
  | Tenancy -> 5
  | Wire -> 6
  | Daemon -> 7
  | Loadgen -> 8
  | Parallel -> 9

let layer_name = function
  | Pass -> "pass"
  | Sim -> "sim"
  | Schedulers -> "schedulers"
  | Incr_sla_tree -> "incr_sla_tree"
  | Dispatchers -> "dispatchers"
  | Tenancy -> "tenancy"
  | Wire -> "wire"
  | Daemon -> "daemon"
  | Loadgen -> "loadgen"
  | Parallel -> "parallel"

(* Extra counters, summed over domains. *)
type counter =
  | Sched_candidates  (* buffer length summed over picks *)
  | Sched_rush  (* picks that chose a query other than the head *)
  | Disp_candidates  (* dispatchable servers summed over dispatches *)
  | Disp_rejects
  | Admit_rejects
  | Admit_degrades
  | Wire_encodes
  | Wire_encode_ns
  | Wire_decodes  (* messages decoded *)
  | Wire_decode_ns

let n_counters = 10

let counter_index = function
  | Sched_candidates -> 0
  | Sched_rush -> 1
  | Disp_candidates -> 2
  | Disp_rejects -> 3
  | Admit_rejects -> 4
  | Admit_degrades -> 5
  | Wire_encodes -> 6
  | Wire_encode_ns -> 7
  | Wire_decodes -> 8
  | Wire_decode_ns -> 9

type buf = {
  tid : int;
  mutable layer : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable qid : int array;
  mutable n : int;
  mutable cur : int;  (* open span, -1 at top level *)
  counters : int array;
}

let now = Measure.now_ns
let bufs : buf list ref = ref []
let bufs_lock = Mutex.create ()
let next_tid = ref 0

let new_buf () =
  Mutex.lock bufs_lock;
  let b =
    {
      tid = !next_tid;
      layer = Array.make 1024 0;
      t0 = Array.make 1024 0;
      t1 = Array.make 1024 0;
      parent = Array.make 1024 0;
      qid = Array.make 1024 0;
      n = 0;
      cur = -1;
      counters = Array.make n_counters 0;
    }
  in
  incr next_tid;
  bufs := b :: !bufs;
  Mutex.unlock bufs_lock;
  b

let key = Domain.DLS.new_key new_buf
let buf () = Domain.DLS.get key

(* Forget every span and counter; buffers stay registered. Call only
   while no other domain is recording. *)
let reset () =
  Mutex.lock bufs_lock;
  List.iter
    (fun b ->
      b.n <- 0;
      b.cur <- -1;
      Array.fill b.counters 0 n_counters 0)
    !bufs;
  Mutex.unlock bufs_lock

let grow b =
  let cap = 2 * Array.length b.layer in
  let g a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.layer <- g b.layer;
  b.t0 <- g b.t0;
  b.t1 <- g b.t1;
  b.parent <- g b.parent;
  b.qid <- g b.qid

let enter ?(qid = -1) l =
  let b = buf () in
  if b.n = Array.length b.layer then grow b;
  let i = b.n in
  b.layer.(i) <- layer_index l;
  b.parent.(i) <- b.cur;
  b.qid.(i) <- qid;
  b.t1.(i) <- 0;
  b.n <- i + 1;
  b.cur <- i;
  b.t0.(i) <- now ()

(* Closes the open span and returns its duration in ns. *)
let leave_ns ?qid () =
  let t = now () in
  let b = buf () in
  let i = b.cur in
  b.t1.(i) <- t;
  (match qid with Some q -> b.qid.(i) <- q | None -> ());
  b.cur <- b.parent.(i);
  t - b.t0.(i)

let leave ?qid () = ignore (leave_ns ?qid ())

let span ?qid l f =
  enter ?qid l;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let count c n =
  let b = buf () in
  let i = counter_index c in
  b.counters.(i) <- b.counters.(i) + n

(* Closed spans only: the ones whose [t1] is set. *)
let iter_spans f =
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.t1.(i) > 0 then f b i
      done)
    !bufs

let counter c =
  List.fold_left (fun acc b -> acc + b.counters.(counter_index c)) 0 !bufs

type stats = {
  calls : int;
  busy_ns : int;
  self_ns : int;
  p50_ns : float;
  p99_ns : float;
  mean_ns : float;
}

(* Per-layer aggregates over every recorded span. Self time is a span's
   duration minus the durations of its direct children. *)
let aggregate () =
  let durs = Array.make n_layers [] in
  let busy = Array.make n_layers 0 in
  let self = Array.make n_layers 0 in
  List.iter
    (fun b ->
      let child = Array.make b.n 0 in
      for i = 0 to b.n - 1 do
        let p = b.parent.(i) in
        if b.t1.(i) > 0 && p >= 0 then
          child.(p) <- child.(p) + (b.t1.(i) - b.t0.(i))
      done;
      for i = 0 to b.n - 1 do
        if b.t1.(i) > 0 then begin
          let l = b.layer.(i) and d = b.t1.(i) - b.t0.(i) in
          durs.(l) <- d :: durs.(l);
          busy.(l) <- busy.(l) + d;
          self.(l) <- self.(l) + d - child.(i)
        end
      done)
    !bufs;
  Array.init n_layers (fun l ->
      let a = Measure.sorted (Array.of_list (List.map Float.of_int durs.(l))) in
      let n = Array.length a in
      let pct p = if n = 0 then 0.0 else Measure.percentile_sorted a p in
      {
        calls = n;
        busy_ns = busy.(l);
        self_ns = self.(l);
        p50_ns = pct 0.5;
        p99_ns = pct 0.99;
        mean_ns = (if n = 0 then 0.0 else Float.of_int busy.(l) /. Float.of_int n);
      })

(* Chrome trace-event JSON in the shape [Obs.Trace.to_chrome_json]
   emits: balanced B/E pairs per tid, timestamps in microseconds, the
   query id and parent span in the B event's args. At most [limit]
   spans per domain are written (in begin order, so every written
   span's parent is written too). *)
let write_chrome ~path ~limit =
  let epoch = ref max_int in
  iter_spans (fun b i -> if b.t0.(i) < !epoch then epoch := b.t0.(i));
  let oc = open_out path in
  let first = ref true in
  let ev s =
    if !first then first := false else output_string oc ",\n";
    output_string oc s
  in
  output_string oc "{\"traceEvents\": [\n";
  let us t = Float.of_int (t - !epoch) /. 1e3 in
  List.iter
    (fun b ->
      let stack = ref [] in
      let close_until p =
        let rec go () =
          match !stack with
          | top :: rest when top <> p ->
            ev
              (Printf.sprintf "{\"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d}"
                 (us b.t1.(top)) b.tid);
            stack := rest;
            go ()
          | _ -> ()
        in
        go ()
      in
      for i = 0 to min b.n limit - 1 do
        if b.t1.(i) > 0 then begin
          close_until b.parent.(i);
          let l = layers.(b.layer.(i)) in
          ev
            (Printf.sprintf
               "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"B\", \"ts\": \
                %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"span\": %d, \
                \"parent\": %d, \"qid\": %d}}"
               (layer_name l) (us b.t0.(i)) b.tid i b.parent.(i) b.qid.(i));
          stack := i :: !stack
        end
      done;
      close_until (-1))
    (List.rev !bufs);
  output_string oc "\n],\n\"displayTimeUnit\": \"ms\"}\n";
  close_out oc
