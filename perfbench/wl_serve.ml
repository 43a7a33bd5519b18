(* The serving workload: a tenant-tagged trace through the serving
   path with tenancy admission on.

   The timed passes run the path in one domain: every submission is
   encoded into a wire frame and decoded as the daemon decodes it, then
   handled by [Daemon.Engine.handle] (the deterministic engine, manual
   virtual clock); every message the engine emits is encoded and
   decoded back as the client would. A query's decision latency runs
   from encoding its Submit to decoding its Decision.

   The socket itself is too noisy to bound on a shared 2-core virtual
   machine: with the daemon in a second domain, unpaced arrivals/s of
   identical runs spread by 60 % while the host stole a quarter of the
   CPU, and a fixed-rate phase saturated into milliseconds of latency.
   So each run also drives one round through the real daemon over a
   unix socket — an open-loop phase submitting the first [n_paced]
   queries at a fixed [rate], then an unpaced phase with all of them,
   one connection each — and checks it, and the traced run times its
   layers (wire, daemon, loadgen). *)

let servers = 8
let n_queries = 20_000
let n_paced = 5_000
let warmup = n_queries / 10
let rate = 5_000.0

(* Rounds write the daemon's socket here (inside the checkout). *)
let sock_path = Filename.concat (Filename.concat "perfbench" "out") "serve.sock"

let generate ~seed =
  Tenancy.assign (Tenancy.default_registry ())
    (Trace.generate (Wl_sim.trace_cfg ~load:0.9 ~servers ~n_queries ~seed))

let admission () =
  let reg = Tenancy.default_registry () in
  Tenancy.admit (Tenancy.admission reg ~acct:(Tenancy.Acct.create reg ~warmup_id:warmup) ())

let engine ~traced =
  let admit = admission () in
  let admit, dispatcher =
    if traced then
      ( Layers.wrap_admit admit,
        Dispatchers.v ~name:"tree-fcfs (traced)" (fun () ->
            Layers.wrap_dispatch (Dispatchers.instantiate (Wl_sim.dispatcher ()))) )
    else (admit, Wl_sim.dispatcher ())
  in
  Daemon.Engine.create ~warmup ~admit ~clock:(Vclock.manual ())
    ~scheduler:Wl_sim.scheduler ~dispatcher ~n_servers:servers ()

(* The daemon's Summary as an in-process [Sim.run] with the same
   admission computes it: the same counters, plus the daemon's
   per-tenant tally (completions with their profit, and rejections). *)
let reference_summary queries =
  let metrics = Metrics.create ~warmup_id:warmup () in
  let tally = Hashtbl.create 4 in
  let bump q f =
    let tn = q.Query.tenant in
    if tn > 0 then
      Hashtbl.replace tally tn
        (f (Option.value (Hashtbl.find_opt tally tn) ~default:(0, 0, 0.0)))
  in
  let sim = ref None in
  let admit_q = admission () in
  let admit s q =
    sim := Some s;
    admit_q s q
  in
  let pick_next, hook = Schedulers.instantiate Wl_sim.scheduler in
  Sim.run ~admit
    ~on_dispatch:(fun ~now:_ q d ->
      if d.Sim.target = None then bump q (fun (c, r, p) -> (c, r + 1, p)))
    ~on_complete:(fun q ~completion ->
      bump q (fun (c, r, p) -> (c + 1, r, p +. Query.profit_at q ~completion)))
    ?on_server_event:hook ~queries ~n_servers:servers ~pick_next
    ~dispatch:(Dispatchers.instantiate (Wl_sim.dispatcher ()))
    ~metrics ();
  {
    Wire.completed = Metrics.completed_count metrics;
    rejected = Metrics.rejected_count metrics;
    dropped = Metrics.dropped_count metrics;
    measured = Metrics.measured_count metrics;
    late = Metrics.late_count metrics;
    total_profit = Metrics.total_profit metrics;
    avg_loss = Metrics.avg_loss metrics;
    avg_response = Metrics.avg_response metrics;
    vnow = Sim.now (Option.get !sim);
    tenants =
      Hashtbl.fold
        (fun tn (c, r, p) acc ->
          { Wire.tr_tenant = tn; tr_completed = c; tr_rejected = r; tr_profit = p } :: acc)
        tally []
      |> List.sort (fun a b -> Int.compare a.Wire.tr_tenant b.Wire.tr_tenant);
  }

(* What one phase's client saw. Times are host-monotonic ns. *)
type phase = {
  first_send : int;
  summary_at : int;
  due : int array;  (** per query; 0 when unpaced *)
  sent_at : int array;
  decided_at : int array;  (** receipt of the (first) Decision, 0 if none *)
  decisions : int array;  (** Decisions received per query *)
  summary : Wire.summary option;
  errors : int;  (** daemon Error_msg replies *)
  decode_errors : int;
  bytes : int;  (** both directions *)
  inflight_max : int;
  setup_s : float;  (** daemon bring-up until the connection is open *)
}

let start_daemon engine =
  if Sys.file_exists sock_path then Sys.remove sock_path;
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Daemon.serve ~exit_on_idle:true
          ~on_ready:(fun () -> Atomic.set ready true)
          ~engine ~listen:(Daemon.Unix_sock sock_path) ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let fd = Replay.connect (Daemon.Unix_sock sock_path) in
  Unix.set_nonblock fd;
  (d, fd)

(* Drive one phase over a fresh daemon. [paced] submits query [i] at
   [t0 + i / rate]; otherwise as fast as the socket accepts. Reads are
   serviced between sends so neither side blocks on a full buffer. *)
let run_phase ~traced ~paced queries =
  let n = Array.length queries in
  let (d, fd), setup_s = Measure.timed (fun () -> start_daemon (engine ~traced)) in
  let dec = Wire.Decoder.create ~framing:Wire.Binary () in
  let rbuf = Bytes.create 65536 in
  let index = Hashtbl.create n in
  Array.iteri (fun i q -> Hashtbl.replace index q.Query.id i) queries;
  let due = Array.make n 0 and sent_at = Array.make n 0 in
  let decided_at = Array.make n 0 and decisions = Array.make n 0 in
  let summary = ref None and errors = ref 0 and decode_errors = ref 0 in
  let closed = ref false and bytes = ref 0 and decided = ref 0 in
  let inflight_max = ref 0 and sent = ref 0 in
  let on_msg now = function
    | Wire.Decision { qid; _ } -> (
      match Hashtbl.find_opt index qid with
      | Some i ->
        if decisions.(i) = 0 then decided_at.(i) <- now;
        decisions.(i) <- decisions.(i) + 1;
        incr decided
      | None -> incr errors)
    | Wire.Summary s -> summary := Some s
    | Wire.Error_msg _ -> incr errors
    | Wire.Completion _ | Wire.Dropped _ | Wire.Hello _ | Wire.Eof | Wire.Submit _ -> ()
  in
  let next_msg () =
    if traced then begin
      Tracer.enter Tracer.Wire;
      let r = Wire.Decoder.next dec in
      Tracer.count Tracer.Wire_decode_ns (Tracer.leave_ns ());
      (match r with Ok (Some _) -> Tracer.count Tracer.Wire_decodes 1 | _ -> ());
      r
    end
    else Wire.Decoder.next dec
  in
  let decode_all () =
    let now = Measure.now_ns () in
    let more = ref true in
    while !more do
      match next_msg () with
      | Ok (Some m) -> on_msg now m
      | Ok None -> more := false
      | Error _ ->
        incr decode_errors;
        closed := true;
        more := false
    done
  in
  let pump () =
    let again = ref true in
    while !again && not !closed do
      match Unix.read fd rbuf 0 (Bytes.length rbuf) with
      | 0 -> closed := true
      | k ->
        bytes := !bytes + k;
        Wire.Decoder.feed dec (Bytes.sub_string rbuf 0 k);
        decode_all ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> again := false
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed := true
    done
  in
  let send s =
    let off = ref 0 and len = String.length s in
    bytes := !bytes + len;
    while !off < len && not !closed do
      (match Unix.write_substring fd s !off (len - !off) with
      | k -> off := !off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [ fd ] [ fd ] [] 1.0 with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> closed := true);
      pump ()
    done
  in
  let encode msg qid =
    if traced then begin
      Tracer.enter ~qid Tracer.Wire;
      let s = Wire.encode Wire.Binary msg in
      Tracer.count Tracer.Wire_encode_ns (Tracer.leave_ns ());
      Tracer.count Tracer.Wire_encodes 1;
      s
    end
    else Wire.encode Wire.Binary msg
  in
  let gap = int_of_float (1e9 /. rate) in
  let t0 = Measure.now_ns () in
  Array.iteri
    (fun i q ->
      if paced then begin
        let due_i = t0 + (i * gap) in
        due.(i) <- due_i;
        (* Sleep (woken by replies) until the last 60 us, which is
           longer than a timer's default slack, then spin servicing
           reads, so sends are not late by the slack. *)
        let rec wait () =
          let dt = due_i - Measure.now_ns () in
          if dt > 0 && not !closed then begin
            if dt > 60_000 then
              (match Unix.select [ fd ] [] [] (Float.of_int (dt - 60_000) /. 1e9) with
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            pump ();
            wait ()
          end
        in
        wait ()
      end;
      if traced && paced then Tracer.enter ~qid:q.Query.id Tracer.Loadgen;
      sent_at.(i) <- Measure.now_ns ();
      send (encode (Wire.Submit q) q.Query.id);
      if traced && paced then Tracer.leave ();
      incr sent;
      if !sent - !decided > !inflight_max then inflight_max := !sent - !decided)
    queries;
  send (encode Wire.Eof (-1));
  while !summary = None && not !closed do
    (match Unix.select [ fd ] [] [] 1.0 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    pump ()
  done;
  let summary_at = Measure.now_ns () in
  Unix.close fd;
  Domain.join d;
  {
    first_send = (if n > 0 then sent_at.(0) else t0);
    summary_at;
    due;
    sent_at;
    decided_at;
    decisions;
    summary = !summary;
    errors = !errors;
    decode_errors = !decode_errors;
    bytes = !bytes;
    inflight_max = !inflight_max;
    setup_s;
  }

let wall_s p = Measure.secs (p.summary_at - p.first_send)

(* Decision latency of the paced phase: due time to Decision receipt. *)
let latencies_us p =
  Array.init (Array.length p.due) (fun i ->
      Float.of_int (p.decided_at.(i) - p.due.(i)) /. 1e3)

(* Submissions with no Decision or more than one, daemon errors and
   decode errors. *)
let failed_ops p =
  Array.fold_left (fun acc k -> if k = 1 then acc else acc + 1) 0 p.decisions
  + p.errors + p.decode_errors

type round = { paced : phase; unpaced : phase }

let round ~traced queries =
  let paced = run_phase ~traced ~paced:true (Array.sub queries 0 n_paced) in
  let unpaced = run_phase ~traced ~paced:false queries in
  { paced; unpaced }

type inproc = {
  i_wall : float;
  i_p50_us : float;
  i_summary : Wire.summary option;
  i_failed : int;  (** submissions without exactly one Decision, errors *)
}

(* One pass of the serving path in one domain (see the top of the
   file). A traced pass times each [Engine.handle] of a submission as a
   [Daemon] span: the engine's share of the socket path. *)
let inproc_pass ?(traced = false) queries =
  let n = Array.length queries in
  let e = engine ~traced:false in
  let index = Hashtbl.create n in
  Array.iteri (fun i q -> Hashtbl.replace index q.Query.id i) queries;
  let decisions = Array.make n 0 and lat = Array.make n 0.0 in
  let summary = ref None and errors = ref 0 in
  Daemon.Engine.on_emit e (fun ~client:_ msg ->
      match Wire.decode Wire.Binary (Wire.encode Wire.Binary msg) with
      | Ok (Wire.Decision { qid; _ }, _) -> (
        match Hashtbl.find_opt index qid with
        | Some i -> decisions.(i) <- decisions.(i) + 1
        | None -> incr errors)
      | Ok (Wire.Summary s, _) -> summary := Some s
      | Ok (Wire.Error_msg _, _) | Error _ -> incr errors
      | Ok _ -> ());
  let submit msg =
    match Wire.decode Wire.Binary (Wire.encode Wire.Binary msg) with
    | Ok ((Wire.Submit q as m), _) when traced ->
      Tracer.span ~qid:q.Query.id Tracer.Daemon (fun () -> Daemon.Engine.handle e ~client:0 m)
    | Ok (m, _) -> Daemon.Engine.handle e ~client:0 m
    | Error _ -> incr errors
  in
  let t0 = Measure.now_ns () in
  Array.iteri
    (fun i q ->
      let a = Measure.now_ns () in
      submit (Wire.Submit q);
      lat.(i) <- Float.of_int (Measure.now_ns () - a) /. 1e3)
    queries;
  submit Wire.Eof;
  let wall = Measure.secs (Measure.now_ns () - t0) in
  {
    i_wall = wall;
    i_p50_us = Measure.percentile lat 0.5;
    i_summary = !summary;
    i_failed = Array.fold_left (fun a k -> if k = 1 then a else a + 1) !errors decisions;
  }

let run ~seed ~seconds ~trace =
  let out = Filename.dirname sock_path in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let c = Measure.checks () in
  let queries = generate ~seed in
  let n = Array.length queries in
  let reference = reference_summary queries in
  let reference_paced = reference_summary (Array.sub queries 0 n_paced) in
  let check_phase name reference p =
    Measure.check c (name ^ "_summary_equals_sim_run")
      (match p.summary with
      | Some s -> Wire.equal (Wire.Summary s) (Wire.Summary reference)
      | None -> false);
    Measure.check c (name ^ "_one_decision_each") (failed_ops p = 0)
  in
  let check_round r =
    check_phase "paced" reference_paced r.paced;
    check_phase "unpaced" reference r.unpaced
  in
  let ops rounds = List.fold_left (fun a r -> a + failed_ops r.paced + failed_ops r.unpaced) 0 rounds in
  let submissions = n_paced + n in
  let median f rounds = Measure.median (Array.of_list (List.map f rounds)) in
  let budget = int_of_float (seconds *. 1e9) and t0 = Measure.now_ns () in
  Gc.full_major ();
  if not trace then begin
    let setups = ref [] in
    let host = Measure.host () in
    let passes =
      Measure.passes ~host ~seconds ~min_passes:3 (fun () ->
          (* Each pass regenerates its inputs and brings an engine up:
             the set-up samples. *)
          let qs, g = Measure.timed (fun () -> generate ~seed) in
          let _, b = Measure.timed (fun () -> engine ~traced:false) in
          setups := (g +. b) :: !setups;
          let p = inproc_pass qs in
          Measure.check c "inproc_summary_equals_sim_run"
            (match p.i_summary with
            | Some s -> Wire.equal (Wire.Summary s) (Wire.Summary reference)
            | None -> false);
          p)
    in
    let metrics, notes =
      Measure.end_to_end ~host ~work:(n * List.length passes)
        ~walls:(List.map (fun p -> p.i_wall) passes)
        ~p50s_us:(List.map (fun p -> p.i_p50_us) passes)
        ~loss:reference.Wire.avg_loss
        ~setup_s:(Measure.median (Array.of_list !setups))
    in
    let r = round ~traced:false queries in
    check_round r;
    let failed = ops [ r ] + List.fold_left (fun a p -> a + p.i_failed) 0 passes in
    let failures = Measure.failures c in
    {
      Measure.attempted = (n * List.length passes) + submissions;
      failed = failed + List.length failures;
      failures;
      metrics;
      notes;
    }
  end
  else begin
    let untraced = ref [] and traced = ref [] and gc = ref None in
    while !traced = [] || Measure.now_ns () - t0 < budget do
      let r, d = Measure.gc_around (fun () -> round ~traced:false queries) in
      untraced := r :: !untraced;
      if !gc = None then gc := Some d;
      Tracer.reset ();
      let tr = Tracer.span Tracer.Pass (fun () -> round ~traced:true queries) in
      let ip = Tracer.span Tracer.Pass (fun () -> inproc_pass ~traced:true queries) in
      Measure.check c "inproc_one_decision_each" (ip.i_failed = 0);
      traced := tr :: !traced
    done;
    List.iter check_round (!untraced @ !traced);
    let tr = List.hd !traced in
    let agg = Tracer.aggregate () in
    let daemon = agg.(Tracer.layer_index Tracer.Daemon) in
    let engine_s = Measure.secs daemon.Tracer.busy_ns in
    let socket_wall = median (fun r -> wall_s r.unpaced) !untraced in
    let late =
      Array.init n_paced (fun i ->
          Float.of_int (tr.paced.sent_at.(i) - tr.paced.due.(i)) /. 1e3)
    in
    let per a b = Layers.ratio (Tracer.counter a) (Tracer.counter b) in
    let values =
      Layers.decision_extras ~agg ~postpone_calls:0 ~rebuilds:0
      @ [
          ("wire.encode_ns", per Tracer.Wire_encode_ns Tracer.Wire_encodes);
          ("wire.decode_ns", per Tracer.Wire_decode_ns Tracer.Wire_decodes);
          ( "wire.bytes_per_query",
            Float.of_int (tr.paced.bytes + tr.unpaced.bytes) /. Float.of_int submissions );
          ("daemon.engine_ns_per_submit", daemon.Tracer.mean_ns);
          ("daemon.engine_share", engine_s /. socket_wall);
          ("daemon.socket_share", 1.0 -. (engine_s /. socket_wall));
          ("daemon.inflight_max", Float.of_int tr.unpaced.inflight_max);
          ("loadgen.late_p50_us", Measure.percentile late 0.5);
          ("loadgen.late_p99_us", Measure.percentile late 0.99);
          ( "loadgen.decision_p50_us",
            median (fun r -> Measure.percentile (latencies_us r.paced) 0.5) !untraced );
          ( "loadgen.decision_p99_us",
            median (fun r -> Measure.percentile (latencies_us r.paced) 0.99) !untraced );
          ("loadgen.decision_samples", Float.of_int n_paced);
          ("loadgen.arrivals_per_s", Float.of_int n /. socket_wall);
          ( "obs.overhead_frac",
            (median (fun r -> wall_s r.unpaced) !traced
            /. median (fun r -> wall_s r.unpaced) !untraced)
            -. 1.0 );
        ]
      @ List.map
          (fun mt -> (mt.Measure.name, mt.Measure.value))
          (Measure.gc_metrics ~queries:submissions (Option.get !gc))
    in
    let failures = Measure.failures c in
    let rounds = List.length !untraced + List.length !traced in
    {
      Measure.attempted = (submissions * rounds) + (n * List.length !traced);
      failed = ops (!untraced @ !traced) + List.length failures;
      failures;
      metrics = Layers.report ~agg ~wall_s:(wall_s tr.paced +. wall_s tr.unpaced) values;
      notes = [];
    }
  end
