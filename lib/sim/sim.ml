(* Event-driven multi-server queueing simulator (paper Sec 2.2, Fig 4).

   Queries arrive at a central dispatcher, are assigned to one of the
   pool's servers (each with a single buffer), and a per-server
   scheduler picks the next buffered query whenever the server goes
   idle.

   Decision makers (dispatcher, scheduler) see estimated execution
   times; the server is busy for the *actual* execution time.

   The pool is dynamic: servers can be added mid-run ([add_server],
   optionally with a boot delay before they accept work) and retired
   through a drain protocol ([retire_server]: the server stops
   receiving dispatches, its buffer is either redistributed through
   the dispatcher or drained in place, and it leaves the pool once its
   last query completes). Server ids are never reused.

   Non-graceful transitions (lib/fault drives these): [crash_server]
   kills the machine outright — the running query and the buffer are
   orphaned and returned to the caller, who decides between
   re-injection ([reinject], the retry path) and loss; [set_speed] /
   [degrade_server] change the service rate mid-run (brownout), with
   the running query's completion rescheduled for the remaining work;
   [restore_server] undoes either.

   A server runs at most one query, so the pending completions sit in
   an indexed heap of sids keyed by [act_finish]: starting or re-rating
   a query sets the server's key, a crash removes it, and the event
   loop pops the minimum (ties to the lower sid).

   Hot-path notes: buffers are array-backed FIFO deques (O(1) append,
   O(1) length) and each server carries [est_backlog], the sum of
   buffered estimated sizes, maintained incrementally on
   enqueue/start/drop, so [est_work_left] is O(1). The FCFS SLA-tree
   and LWL dispatchers do not ask it of every server: they read the
   least-work index ([least_work], below), which proposes one server
   per speed class. *)

type running = {
  rquery : Query.t;
  started : float;
  act_finish : float;  (** real completion; drives the event loop *)
  est_finish : float;  (** what decision makers believe *)
}

(* Pool-membership life cycle. [Booting until] servers count as pool
   members (they cost money) but accept no work before [until];
   [Draining] servers accept no new work and leave the pool
   ([Retired]) once their running query and any un-redistributed
   buffer are gone. [Down] servers crashed: they hold no work, accept
   none, and still occupy (and cost) a machine until repaired
   ([restore_server]) or given up on ([retire_server]). *)
type server_state = Booting of float | Active | Draining | Down | Retired

type server = {
  sid : int;
  mutable speed : float;
      (** current processing rate; execution takes size/speed *)
  nominal : float;  (** the rate the server was provisioned with *)
  mutable running : running option;
  buffer : Query.t Deque.t;  (** arrival order, oldest first *)
  mutable est_backlog : float;
      (** sum of [est_size] over the buffer (raw, not speed-scaled) *)
  mutable state : server_state;
}

(* Per-server life-cycle notifications, consumed by the fault
   injector, the elastic controller and the serving daemon. Within one
   completion the order is: Finished, Dropped*, [pick_next], Started;
   an arrival emits Enqueued (busy server) or Started (idle server).
   Pool membership changes emit Scaled_up (server added), Draining
   (retirement initiated; a redistributed buffer re-enters through the
   dispatcher, emitting fresh Enqueued/Started events on the targets)
   and Retired (the server left the pool for good). Fault transitions
   emit Crashed (the orphans leave through [crash_server]'s return
   value, not through Dropped events), Degraded (service rate changed mid-run) and
   Restored (rate back to nominal, or a Down server repaired). *)
type server_event =
  | Started of Query.t
  | Enqueued of Query.t
  | Finished of { query : Query.t; actual : float }
  | Dropped of Query.t
  | Scaled_up
  | Draining
  | Retired
  | Crashed
  | Degraded of float  (** the new service rate *)
  | Restored

(* The least-work index (see [least_work]). One class per speed in
   use among the indexed servers; a class keeps two heaps of sids. *)
type klass = {
  kspeed : float;
  on_time : Iheap.t;
      (** running with [est_finish > now], keyed by
          [est_finish +. est_backlog /. speed]: the time the server's
          estimated schedule ends, which is its work left plus [now] *)
  left : Iheap.t;
      (** idle, or running past [est_finish], keyed by
          [est_backlog /. speed]: exactly their [est_work_left] *)
}

type index = {
  mutable classes : klass array;
  due : Iheap.t;
      (** the [on_time] members whose estimate undershoots, keyed by
          [est_finish]: such a member moves to its class's [left] once
          the clock passes it *)
  booting : Iheap.t;  (** [Booting until] servers, keyed by [until] *)
  (* By sid, sized together past the largest sid: *)
  mutable class_of : int array;  (** the class in [classes], or -1 *)
  mutable cands : int array;  (** scratch: one read's candidates *)
  mutable n_cands : int;
  mutable dirty : int array;
      (** the servers changed since the last read, each once: a stack
          of sids *)
  mutable n_dirty : int;
  mutable is_dirty : bool array;  (** whether the sid is on [dirty] *)
  mutable champs : int array;  (** the last read's answer, by class *)
}

type t = {
  mutable servers : server array;
  mutable now : float;
  completions : Iheap.t;  (** running servers, keyed by [act_finish] *)
  mutable on_event : (sid:int -> now:float -> server_event -> unit) option;
  mutable arrive : (Query.t -> unit) option;
      (** the full arrival path (dispatch + metrics + observers), set
          by [session]; re-entered when a drain redistributes a buffer
          or a crash handler re-injects a retry *)
  mutable index : index option;  (** built by the first [least_work] *)
}

(* [pick_next ~now buffer] returns the index (into the arrival-ordered
   [buffer]) of the query to execute next. *)
type pick_next = now:float -> Query.t array -> int

type decision = { target : int option; est_delta : float option }

type dispatch = t -> Query.t -> decision

(* An admission controller's verdict on an arriving query, delivered
   before the dispatcher sees it. [Degrade] swaps in a cheaper copy of
   the same query (down-tiered SLA); it must keep the id. *)
type verdict =
  | Admit
  | Degrade of Query.t
  | Reject

type admit = t -> Query.t -> verdict

let n_servers t = Array.length t.servers
let server t i = t.servers.(i)
let now t = t.now

let buffer_array s = Deque.to_array s.buffer

let buffer_length s = Deque.length s.buffer

(* The three per-query events ([Started], [Enqueued], [Finished]) match
   on [on_event] in place instead, so that a run with no listener
   builds none of them. *)
let emit t s ev =
  match t.on_event with None -> () | Some f -> f ~sid:s.sid ~now:t.now ev

(* ------------------------------------------------------------------ *)
(* Least-work index upkeep. Once built, every change to a server's
   [running], [est_backlog], [speed] or [state] marks it ([touch]), and
   the next read places every marked server once, from its fields at
   that read: a server changed several times between two reads is
   placed once. Only [Active] servers sit in a class; [Booting] ones
   wait in [booting] (even past their ready time: a read promotes them
   first); the rest are unindexed. *)

let unplace ix sid =
  if ix.class_of.(sid) >= 0 then begin
    let c = ix.classes.(ix.class_of.(sid)) in
    Iheap.remove c.on_time sid;
    Iheap.remove c.left sid;
    Iheap.remove ix.due sid;
    ix.class_of.(sid) <- -1
  end;
  Iheap.remove ix.booting sid

(* The class for [speed], moving [sid] out of its old class first. *)
let klass ix sid speed =
  let c = ix.class_of.(sid) in
  if c >= 0 && ix.classes.(c).kspeed = speed then ix.classes.(c)
  else begin
    unplace ix sid;
    let rec find i =
      if i = Array.length ix.classes then begin
        let k = { kspeed = speed; on_time = Iheap.create (); left = Iheap.create () } in
        ix.classes <- Array.append ix.classes [| k |];
        i
      end
      else if ix.classes.(i).kspeed = speed then i
      else find (i + 1)
    in
    let i = find 0 in
    ix.class_of.(sid) <- i;
    ix.classes.(i)
  end

let place ix ~now s =
  match s.state with
  | Active -> (
    let sid = s.sid in
    let c = klass ix sid s.speed in
    let left = s.est_backlog /. s.speed in
    match s.running with
    | Some r when r.est_finish > now ->
      Iheap.remove c.left sid;
      Iheap.set c.on_time sid (r.est_finish +. left);
      (* Only an estimate that undershoots can run out before its query
         completes: no read happens past a pending completion. *)
      if r.act_finish > r.est_finish then Iheap.set ix.due sid r.est_finish
      else Iheap.remove ix.due sid
    | Some _ | None ->
      Iheap.remove c.on_time sid;
      Iheap.remove ix.due sid;
      Iheap.set c.left sid left)
  | Booting until ->
    unplace ix s.sid;
    Iheap.set ix.booting s.sid until
  | Draining | Down | Retired -> unplace ix s.sid

(* Make room for sids up to [sid] (the pool grew). *)
let widen ix sid =
  let n = Array.length ix.class_of in
  let cap = max (sid + 1) (2 * n) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  ix.class_of <- ext ix.class_of (-1);
  ix.cands <- ext ix.cands 0;
  ix.dirty <- ext ix.dirty 0;
  ix.is_dirty <- ext ix.is_dirty false

let touch t s =
  match t.index with
  | None -> ()
  | Some ix ->
    let sid = s.sid in
    if sid >= Array.length ix.class_of then widen ix sid;
    if not ix.is_dirty.(sid) then begin
      ix.is_dirty.(sid) <- true;
      ix.dirty.(ix.n_dirty) <- sid;
      ix.n_dirty <- ix.n_dirty + 1
    end

(* Place every server marked since the last read, once each. *)
let place_dirty t ix =
  for j = 0 to ix.n_dirty - 1 do
    let sid = ix.dirty.(j) in
    ix.is_dirty.(sid) <- false;
    place ix ~now:t.now t.servers.(sid)
  done;
  ix.n_dirty <- 0

(* Whether the server currently accepts dispatches. Booting servers
   whose boot delay has elapsed are promoted to [Active] lazily. *)
let dispatchable_server t s =
  match s.state with
  | Active -> true
  | Booting ready when ready <= t.now ->
    s.state <- Active;
    touch t s;
    true
  | Booting _ | Draining | Down | Retired -> false

let dispatchable t sid = dispatchable_server t t.servers.(sid)

let server_state t sid = t.servers.(sid).state

(* Pool members: everything not yet retired (booting and draining
   servers still occupy — and cost — a machine). *)
let live_servers t =
  Array.fold_left
    (fun n s -> if s.state = Retired then n else n + 1)
    0 t.servers

let dispatchable_count t =
  let n = ref 0 in
  Array.iter (fun s -> if dispatchable_server t s then incr n) t.servers;
  !n

(* Estimated time at which the server finishes its current query (now
   when idle; never in the past, even if the estimate undershot). *)
let est_free_at t s =
  match s.running with
  | None -> t.now
  | Some r -> if r.est_finish > t.now then r.est_finish else t.now

(* Estimated time the server still owes: remaining current query plus
   everything buffered, in wall-clock terms (i.e. divided by the
   server's speed). This is LWL's metric (Sec 2.3), naturally
   speed-aware on heterogeneous farms. O(1) via [est_backlog]. *)
let est_work_left t s =
  let cur = est_free_at t s -. t.now in
  cur +. (s.est_backlog /. s.speed)

(* ------------------------------------------------------------------ *)
(* Least-work index reads.

   Within one speed class the appended completion time
   [now + w + est/speed] never falls as the work left [w] grows, so the
   member with the least [w] (then the lowest sid) wins both the LWL
   rule and the FCFS SLA-tree rule (most profit, then least [w], then
   lowest sid): a dispatcher needs only one server per class.

   A [left] member's key is its [w] exactly ([0. +. b] is [b]). An
   [on_time] key [fl(e + b)] (for [e = est_finish >= now] and
   [b = backlog/speed >= 0]) is [w + now] up to rounding, but [w] is
   computed as [fl(fl(e - now) + b)], and the two orders can disagree
   in the last bits. Both are within [2.1u (e + b)] of exact
   ([u = 2^-53]), so a member keyed above [k0 (1 + 2^-48)], for the
   least key [k0], has a [w] strictly above the least-keyed member's:
   only the members keyed within that bound are asked their exact [w].
   A running server whose estimate ran out ([e < now]) has [w = b]
   while its key understates it, so a read first moves every such
   server to [left]; only an estimate that undershoots its query's
   actual time can run out while the query still runs. *)

let push_cand ix sid =
  ix.cands.(ix.n_cands) <- sid;
  ix.n_cands <- ix.n_cands + 1

(* Members keyed at most [limit] form a subtree under the root (a
   child is keyed no lower than its parent): walk only that subtree. *)
let rec gather ix h limit i =
  if i < h.Iheap.len && h.Iheap.keys.(i) <= limit then begin
    push_cand ix h.Iheap.ids.(i);
    gather ix h limit ((2 * i) + 1);
    gather ix h limit ((2 * i) + 2)
  end

(* The class member with the least exact work left, ties to the lowest
   sid; -1 for an empty class. *)
let champion t ix c =
  ix.n_cands <- 0;
  if c.left.len > 0 then push_cand ix c.left.ids.(0);
  if c.on_time.len > 0 then begin
    let k0 = c.on_time.keys.(0) in
    gather ix c.on_time (k0 +. (k0 *. 0x1p-48)) 0
  end;
  if ix.n_cands = 1 then ix.cands.(0)
  else
  let best = ref (-1) and best_w = ref infinity in
  for j = 0 to ix.n_cands - 1 do
    let sid = ix.cands.(j) in
    let w = est_work_left t t.servers.(sid) in
    if !best < 0 || w < !best_w || (w = !best_w && sid < !best) then begin
      best := sid;
      best_w := w
    end
  done;
  !best

let build t =
  let n = Array.length t.servers in
  let ix =
    {
      classes = [||];
      due = Iheap.create ();
      booting = Iheap.create ();
      class_of = Array.make n (-1);
      cands = Array.make n 0;
      n_cands = 0;
      dirty = Array.make n 0;
      n_dirty = 0;
      is_dirty = Array.make n false;
      champs = [||];
    }
  in
  t.index <- Some ix;
  Array.iter (place ix ~now:t.now) t.servers;
  ix

let least_work t =
  let ix = match t.index with Some ix -> ix | None -> build t in
  (* Place what changed, promote every booted server (as
     [dispatchable] would, which marks it) and place the promoted ones,
     then move every server whose estimate ran out to its class's
     [left]. *)
  place_dirty t ix;
  while ix.booting.len > 0 && ix.booting.keys.(0) <= t.now do
    let sid = ix.booting.ids.(0) in
    Iheap.remove ix.booting sid;
    ignore (dispatchable_server t t.servers.(sid))
  done;
  place_dirty t ix;
  while ix.due.len > 0 && ix.due.keys.(0) < t.now do
    place ix ~now:t.now t.servers.(ix.due.ids.(0))
  done;
  let k = Array.length ix.classes in
  if Array.length ix.champs <> k then ix.champs <- Array.make k (-1);
  for i = 0 to k - 1 do
    ix.champs.(i) <- champion t ix ix.classes.(i)
  done;
  ix.champs

let backlog_add s q = s.est_backlog <- s.est_backlog +. q.Query.est_size

(* Float residue could leave a negative sum over a buffer of near-zero
   estimates; the backlog never goes below zero, which the index's
   rounding bound relies on. *)
let backlog_sub s q =
  let b = s.est_backlog -. q.Query.est_size in
  s.est_backlog <- (if b > 0.0 then b else 0.0)

let backlog_remove s q =
  backlog_sub s q;
  (* Snap accumulated float residue back to exactly zero whenever the
     buffer drains, so idle servers compare equal under LWL. *)
  if Deque.is_empty s.buffer then s.est_backlog <- 0.0

(* The canonical drop policy (footnote 2): give up on queries whose
   last deadline has already passed — their penalty is sunk and
   executing them only delays everyone else. *)
let drop_past_last_deadline ~now q =
  now > Query.deadline q ~bound:(Sla.last_deadline q.Query.sla)

(* A rate small enough to pass [set_speed] on an idle server (a tiny
   [degrade_server] factor, [add_server ?speed] or [~speeds]) can still
   overflow a query's completion; the start is refused before any state
   changes, so no infinite completion reaches the event queue. *)
let start_query t s q =
  assert (s.running = None);
  let act_finish = t.now +. (q.Query.size /. s.speed)
  and est_finish = t.now +. (q.Query.est_size /. s.speed) in
  if not (Float.is_finite act_finish && Float.is_finite est_finish) then
    invalid_arg
      (Printf.sprintf
         "Sim: server %d at speed %g cannot start query %d: its completion \
          would not be finite"
         s.sid s.speed q.Query.id);
  let r = { rquery = q; started = t.now; act_finish; est_finish } in
  s.running <- Some r;
  Iheap.set t.completions s.sid r.act_finish;
  touch t s;
  match t.on_event with
  | Some f -> f ~sid:s.sid ~now:t.now (Started q)
  | None -> ()

let dispatch_to t s q =
  if not (dispatchable_server t s) then
    invalid_arg "Sim.dispatch_to: server is not accepting work";
  match s.running with
  | None ->
    assert (Deque.is_empty s.buffer);
    start_query t s q
  | Some _ ->
    Deque.push_back s.buffer q;
    backlog_add s q;
    touch t s;
    (match t.on_event with
    | Some f -> f ~sid:s.sid ~now:t.now (Enqueued q)
    | None -> ())

let make_server ~sid ~speed ~state =
  {
    sid;
    speed;
    nominal = speed;
    running = None;
    buffer = Deque.create ();
    est_backlog = 0.0;
    state;
  }

(* Grow the pool by one server. With [boot_delay], the newcomer joins
   the pool immediately (Scaled_up) but accepts no dispatches before
   [now + boot_delay]. Rare operation — the O(pool) array copy is
   irrelevant next to the event loop. *)
let add_server ?(speed = 1.0) ?(boot_delay = 0.0) t =
  if not (Float.is_finite speed && speed > 0.0) then
    invalid_arg "Sim.add_server: speed must be finite and positive";
  if boot_delay < 0.0 then
    invalid_arg "Sim.add_server: boot_delay must be non-negative";
  let sid = Array.length t.servers in
  let state =
    if boot_delay > 0.0 then Booting (t.now +. boot_delay) else Active
  in
  let s = make_server ~sid ~speed ~state in
  t.servers <- Array.append t.servers [| s |];
  touch t s;
  emit t s Scaled_up;
  sid

(* Initiate the drain protocol. The server immediately stops receiving
   dispatches; with [redistribute] (default) its buffered queries
   re-enter the dispatcher and land on the remaining pool, otherwise
   the server works its own buffer off. It becomes [Retired] — and
   emits the event — as soon as it holds no work. Idempotent on
   already-draining/retired servers.

   A redistributed query goes through the full arrival path, so a
   dispatcher that answers [target = None] REJECTS it: the query is
   recorded as a rejection (metrics + observers fire exactly as for a
   fresh arrival) — it is never silently lost. Crash re-injection
   ([reinject]) rides the same path and inherits the same guarantee. *)
let retire_server ?(redistribute = true) t sid =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.retire_server: no such server";
  let s = t.servers.(sid) in
  match s.state with
  | Retired | Draining -> ()
  | Booting _ | Down ->
    (* Never accepted work / crashed empty; nothing to drain. *)
    s.state <- Retired;
    touch t s;
    emit t s Retired
  | Active ->
    let others_accept =
      Array.exists
        (fun o -> o.sid <> sid && dispatchable_server t o)
        t.servers
    in
    if not others_accept then
      invalid_arg "Sim.retire_server: retiring would empty the pool";
    s.state <- Draining;
    touch t s;
    emit t s Draining;
    if redistribute && not (Deque.is_empty s.buffer) then begin
      let orphans = Deque.to_array s.buffer in
      Deque.clear s.buffer;
      s.est_backlog <- 0.0;
      match t.arrive with
      | Some arrive -> Array.iter arrive orphans
      | None ->
        invalid_arg "Sim.retire_server: redistribution requires a running loop"
    end;
    if s.running = None && Deque.is_empty s.buffer then begin
      s.state <- Retired;
      emit t s Retired
    end

(* ------------------------------------------------------------------ *)
(* Non-graceful transitions (the fault-injection surface). *)

(* Kill server [sid] outright. The running query (first) and the
   buffered queries (arrival order) are returned to the caller — the
   retry policy, not the simulator, decides between [reinject] and
   loss. The server becomes [Down] ([Retired] if it was draining: a
   crashed drain has nothing left to wait for) and its pending
   completion is withdrawn. No-op on servers already down or retired. *)
let crash_server t sid =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.crash_server: no such server";
  let s = t.servers.(sid) in
  match s.state with
  | Down | Retired -> []
  | Booting _ | Active | Draining ->
    let orphans =
      let buffered = Array.to_list (Deque.to_array s.buffer) in
      match s.running with None -> buffered | Some r -> r.rquery :: buffered
    in
    s.running <- None;
    Iheap.remove t.completions sid;
    Deque.clear s.buffer;
    s.est_backlog <- 0.0;
    touch t s;
    emit t s Crashed;
    (match s.state with
    | Draining ->
      s.state <- Retired;
      emit t s Retired
    | _ ->
      (* Repair brings the machine back at its provisioned rate. *)
      s.speed <- s.nominal;
      s.state <- Down;
      touch t s);
    orphans

(* Change server [sid]'s service rate mid-run (brownout / recovery).
   [est_backlog] holds raw sizes, so only the running query needs
   care: its remaining actual and estimated work are carried over to
   the new rate and its completion is re-keyed. Emits [Degraded
   speed], or [Restored] when the rate returns to the provisioned
   nominal. No-op when the speed is unchanged or the server is
   down/retired. *)
let set_speed t sid ~speed =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.set_speed: no such server";
  if not (Float.is_finite speed && speed > 0.0) then
    invalid_arg "Sim.set_speed: speed must be finite and positive";
  let s = t.servers.(sid) in
  match s.state with
  | Down | Retired -> ()
  | Booting _ | Active | Draining ->
    if speed <> s.speed then begin
      (match s.running with
      | None -> ()
      | Some r ->
        let rem_act = Float.max 0.0 (r.act_finish -. t.now) *. s.speed in
        let rem_est = Float.max 0.0 (r.est_finish -. t.now) *. s.speed in
        let act_finish = t.now +. (rem_act /. speed)
        and est_finish = t.now +. (rem_est /. speed) in
        if not (Float.is_finite act_finish && Float.is_finite est_finish) then
          invalid_arg
            "Sim.set_speed: the running query's completion at the new speed \
             must be finite";
        s.running <- Some { r with act_finish; est_finish };
        Iheap.set t.completions sid act_finish);
      s.speed <- speed;
      touch t s;
      emit t s (if speed = s.nominal then Restored else Degraded speed)
    end

let degrade_server t sid ~factor =
  if not (Float.is_finite factor && factor > 0.0) then
    invalid_arg "Sim.degrade_server: factor must be finite and positive";
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.degrade_server: no such server";
  set_speed t sid ~speed:(t.servers.(sid).nominal *. factor)

(* Undo a fault: a [Down] server rejoins the pool idle at its nominal
   rate (repair time is the caller's MTTR model — the server comes
   back the instant this is called); a degraded server returns to
   nominal via [set_speed]. No-op otherwise. *)
let restore_server t sid =
  if sid < 0 || sid >= Array.length t.servers then
    invalid_arg "Sim.restore_server: no such server";
  let s = t.servers.(sid) in
  match s.state with
  | Down ->
    s.speed <- s.nominal;
    s.state <- Active;
    touch t s;
    emit t s Restored
  | Active | Draining -> if s.speed <> s.nominal then set_speed t sid ~speed:s.nominal
  | Booting _ | Retired -> ()

(* Re-enter a query through the full arrival path (dispatch, metrics,
   observers) — the crash-retry channel. The query keeps whatever
   [arrival] it carries: the SLA clock keeps running across the crash.
   Only callable while [run] is live. *)
let reinject t q =
  match t.arrive with
  | Some arrive -> arrive q
  | None -> invalid_arg "Sim.reinject: requires a running loop"

let create ?speeds ~n_servers () =
  if n_servers <= 0 then invalid_arg "Sim.create: n_servers must be positive";
  let speed_of =
    match speeds with
    | None -> fun _ -> 1.0
    | Some a ->
      if Array.length a <> n_servers then
        invalid_arg "Sim.create: speeds array must have one entry per server";
      Array.iter
        (fun v ->
          if not (Float.is_finite v && v > 0.0) then
            invalid_arg "Sim.create: speeds must be finite and positive")
        a;
      fun sid -> a.(sid)
  in
  {
    servers =
      Array.init n_servers (fun sid ->
          make_server ~sid ~speed:(speed_of sid) ~state:Active);
    now = 0.0;
    completions = Iheap.create ();
    on_event = None;
    arrive = None;
    index = None;
  }

(* ------------------------------------------------------------------ *)
(* Live session: the event loop behind [run], exposed as a stepping
   API so a long-running process (lib/serve's daemon) can drive the
   identical state machine from externally arriving queries. [run] is
   a thin driver over it — advance to each arrival, inject, drain —
   which is what makes served decisions bit-identical to simulated
   ones by construction. *)

type session = {
  st : t;
  s_timers : (float * (t -> unit)) array;
  mutable s_timer_idx : int;
  s_tick : (float ref * float * (t -> unit)) option;
  s_arrive : Query.t -> unit;
  s_pop_completion : unit -> unit;
  s_fire_tick : (t -> unit) -> unit;
}

let session ?(obs = Obs.noop) ?admit ?on_dispatch ?on_complete
    ?on_server_event ?speeds ?drop_policy ?ticker ?timers ~n_servers ~pick_next
    ~dispatch ~metrics () =
  let t = create ?speeds ~n_servers () in
  (* One-shot timed callbacks (fault injection plugs in here), fired at
     exactly their scheduled instants, in array order. Like the ticker,
     a timer only fires while an arrival or completion remains — the
     clock never outlives the workload. The empty/absent case costs
     one integer compare per loop step. *)
  let timers =
    match timers with
    | None -> [||]
    | Some a ->
      let last = ref 0.0 in
      Array.iter
        (fun (at, _) ->
          if at < !last then
            invalid_arg "Sim.run: timers must be sorted by time, non-negative";
          last := at)
        a;
      a
  in
  t.on_event <- on_server_event;
  (* Observability handles, resolved once per run; every hot-path hit
     below is guarded by the single [obs_on] branch (the unused names
     registered on the shared noop registry stay at zero forever). *)
  let obs_on = Obs.enabled obs in
  let tr = Obs.trace obs in
  let reg = Obs.registry obs in
  let c_arrivals = Obs.Registry.counter reg "sim.arrivals"
  and c_completions = Obs.Registry.counter reg "sim.completions"
  and c_dropped = Obs.Registry.counter reg "sim.dropped"
  and c_rejected = Obs.Registry.counter reg "sim.rejected"
  and c_degraded = Obs.Registry.counter reg "sim.degraded" in
  (* Footnote-2 alternative: at each scheduling point, abandon buffered
     queries the policy gives up on (typically those past their last
     deadline, whose penalty is already incurred). *)
  let apply_drop_policy s =
    match drop_policy with
    | None -> ()
    | Some keep_or_drop ->
      let dropped =
        Deque.filter_in_place s.buffer ~f:(fun q -> not (keep_or_drop ~now:t.now q))
      in
      List.iter
        (fun q ->
          backlog_sub s q;
          touch t s;
          Metrics.record_dropped metrics q;
          if obs_on then Obs.Registry.incr c_dropped;
          emit t s (Dropped q))
        dropped;
      if Deque.is_empty s.buffer then begin
        s.est_backlog <- 0.0;
        touch t s
      end
  in
  let finish_one s =
    match s.running with
    | None -> assert false
    | Some r ->
      if obs_on then begin
        Obs.Registry.incr c_completions;
        Obs.Trace.begin_span tr ~cat:"sim"
          ~args:[ ("sim_t", Obs.Trace.F t.now); ("sid", Obs.Trace.I s.sid) ]
          "complete"
      end;
      s.running <- None;
      touch t s;
      Metrics.record metrics r.rquery ~completion:t.now;
      (match t.on_event with
      | Some f ->
        f ~sid:s.sid ~now:t.now
          (Finished { query = r.rquery; actual = t.now -. r.started })
      | None -> ());
      (match on_complete with
      | Some f -> f r.rquery ~completion:t.now
      | None -> ());
      apply_drop_policy s;
      let n = Deque.length s.buffer in
      if n > 0 then begin
        (* A draining server without redistribution keeps scheduling
           its own leftover buffer until it is empty. *)
        let arr = Deque.to_array s.buffer in
        let idx = pick_next ~now:t.now arr in
        if idx < 0 || idx >= n then
          invalid_arg "Sim.run: scheduler returned an out-of-bounds index";
        let q = Deque.remove s.buffer idx in
        backlog_remove s q;
        start_query t s q
      end
      else if s.state = Draining then begin
        s.state <- Retired;
        emit t s Retired
      end;
      if obs_on then Obs.Trace.end_span tr
  in
  (* Refusals — by the admission controller or by an admission-mode
     dispatcher returning no target — share one account, so
     [offered = admitted + rejected] holds however a query is turned
     away. *)
  let refuse q =
    if obs_on then Obs.Registry.incr c_rejected;
    Metrics.record_rejected metrics q
  in
  let arrive q =
    if obs_on then begin
      Obs.Registry.incr c_arrivals;
      Obs.Trace.begin_span tr ~cat:"sim"
        ~args:[ ("sim_t", Obs.Trace.F t.now); ("qid", Obs.Trace.I q.Query.id) ]
        "arrive"
    end;
    Metrics.record_offered metrics;
    (* The admission controller sees the query before the dispatcher:
       it can wave it through, swap in a down-tiered copy (same id —
       completion bookkeeping is keyed on it), or refuse outright. *)
    (let verdict = match admit with None -> Admit | Some f -> f t q in
     match verdict with
     | Reject ->
       (match on_dispatch with
       | Some f -> f ~now:t.now q { target = None; est_delta = None }
       | None -> ());
       refuse q
     | Admit | Degrade _ ->
       let q =
         match verdict with
         | Degrade q' ->
           if q'.Query.id <> q.Query.id then
             invalid_arg "Sim.run: Degrade must keep the query id";
           if obs_on then Obs.Registry.incr c_degraded;
           q'
         | _ -> q
       in
       let d = dispatch t q in
       (match on_dispatch with Some f -> f ~now:t.now q d | None -> ());
       (match d.target with
       | None -> refuse q
       | Some sid ->
         if sid < 0 || sid >= Array.length t.servers then
           invalid_arg "Sim.run: dispatcher returned an invalid server";
         Metrics.record_admitted metrics;
         dispatch_to t t.servers.(sid) q));
    if obs_on then Obs.Trace.end_span tr
  in
  t.arrive <- Some arrive;
  (* Optional periodic hook (elastic controllers plug in here): fires
     at every multiple of the interval that precedes a remaining
     arrival or completion, so the clock never outlives the workload. *)
  let tick =
    match ticker with
    | None -> None
    | Some (interval, f) ->
      if interval <= 0.0 then
        invalid_arg "Sim.run: ticker interval must be positive";
      Some (ref interval, interval, f)
  in
  (* Finish the earliest pending completion (ties to the lower sid). *)
  let pop_completion () =
    let h = t.completions in
    let sid = h.ids.(0) in
    t.now <- h.keys.(0);
    Iheap.remove h sid;
    finish_one t.servers.(sid)
  in
  let fire_tick f =
    if obs_on then begin
      Obs.Trace.begin_span tr ~cat:"sim"
        ~args:[ ("sim_t", Obs.Trace.F t.now) ]
        "tick";
      f t;
      Obs.Trace.end_span tr
    end
    else f t
  in
  {
    st = t;
    s_timers = timers;
    s_timer_idx = 0;
    s_tick = tick;
    s_arrive = arrive;
    s_pop_completion = pop_completion;
    s_fire_tick = fire_tick;
  }

let sim sess = sess.st

(* Process every timer, tick and completion due before the next
   arrival. [limit] is the pending arrival's time ([infinity] while
   draining: only the pending completions bound the clock then, and
   with none left nothing fires). The precedence is [run]'s historical
   one: a timed callback preempts everything at or after its instant,
   then a due tick, then the earliest completion. *)
let rec pump sess ~limit =
  let t = sess.st in
  let h = t.completions in
  if h.len > 0 || limit < infinity then begin
    let tc = if h.len > 0 then h.keys.(0) else infinity in
    let te = if tc < limit then tc else limit in
    let timer_due =
      sess.s_timer_idx < Array.length sess.s_timers
      && fst sess.s_timers.(sess.s_timer_idx) <= te
      &&
      match sess.s_tick with
      | Some (next_tick, _, _) ->
        fst sess.s_timers.(sess.s_timer_idx) <= !next_tick
      | None -> true
    in
    if timer_due then begin
      let at, f = sess.s_timers.(sess.s_timer_idx) in
      sess.s_timer_idx <- sess.s_timer_idx + 1;
      (* A timer scheduled in the past fires now (time is monotone). *)
      t.now <- Float.max t.now at;
      f t;
      pump sess ~limit
    end
    else begin
      match sess.s_tick with
      | Some (next_tick, interval, f) when !next_tick <= te ->
        t.now <- !next_tick;
        next_tick := !next_tick +. interval;
        sess.s_fire_tick f;
        pump sess ~limit
      | _ ->
        if tc <= limit then begin
          sess.s_pop_completion ();
          pump sess ~limit
        end
    end
  end

let advance sess ~until = pump sess ~limit:(Float.max until sess.st.now)

let drain sess = pump sess ~limit:infinity

let inject sess q =
  pump sess ~limit:(Float.max q.Query.arrival sess.st.now);
  (* A query whose stamped arrival the clock already passed (a lagging
     live client) arrives now; its SLA clock still runs from the
     stamped arrival. *)
  sess.st.now <- Float.max sess.st.now q.Query.arrival;
  sess.s_arrive q

let next_event_time sess =
  let h = sess.st.completions in
  let best = ref (if h.len > 0 then h.keys.(0) else infinity) in
  if sess.s_timer_idx < Array.length sess.s_timers then
    best := Float.min !best (fst sess.s_timers.(sess.s_timer_idx));
  (match sess.s_tick with
  | Some (next_tick, _, _) -> best := Float.min !best !next_tick
  | None -> ());
  if Float.is_finite !best then Some !best else None

let run ?obs ?admit ?on_dispatch ?on_complete ?on_server_event ?speeds
    ?drop_policy ?ticker ?timers ~queries ~n_servers ~pick_next ~dispatch
    ~metrics () =
  let sess =
    session ?obs ?admit ?on_dispatch ?on_complete ?on_server_event ?speeds
      ?drop_policy ?ticker ?timers ~n_servers ~pick_next ~dispatch ~metrics ()
  in
  Array.iter (fun q -> inject sess q) queries;
  drain sess
