(* Incremental SLA-tree — the paper's stated future work (Sec 9).

   The static SLA-tree must be rebuilt from scratch whenever the buffer
   or the schedule changes. Three observations make the common FCFS
   life cycle (head executes; new queries append at the tail)
   incremental:

   1. POP IS FREE. Executing the head leaves every other query's
      scheduled start unchanged (when the execution takes exactly its
      estimate), so the stored slacks stay valid; we only narrow the
      live id range, which the prefix questions support natively.

   2. DRIFT IS A QUERY SHIFT, NOT AN UPDATE. When an execution takes
      [actual] instead of [estimated], every remaining start shifts by
      the same [actual - estimated]. The whole live buffer therefore
      sits on a fixed *planned* timeline plus one scalar [delay]; a
      unit with stored (planned) slack [s] has true slack [s - delay],
      and the uniform shift moves into the *question* instead of the
      tree:

        postpone counts  0 <= s - delay < tau
          -> S+ gives  Lt(tau + delay) - Lt(delay)
             S- gives  Le(-delay) - Le(-delay - tau)   (units whose
             lateness the drift erased, when delay < 0)
        expedite counts  0 < t + delay <= tau  for S- tardiness t,
          plus S+ units the drift made late:
          -> S- gives  Le(tau - delay) - Le(-delay)
             S+ gives  Lt(delay) - Lt(delay - tau)

   3. BUILD ONLY WHAT THE PROBES PAY FOR. The live buffer is a base the
      tree was built over, followed by an overflow on the same planned
      timeline that probes scan unit by unit. Appends and pops past the
      base only touch the overflow. A build (the "fold") costs about
      n log n for n live queries, so the overflow is folded into the
      tree once the scans since the last build or drain have visited
      more than n * (floor(log2 n) + 1) entries: rent until the rent
      paid equals the price, then buy.
      Scanning thus costs at most one extra build. Folds run in
      [append] and [pop_head] only, never inside a probe, so every
      probe of one decision reads one representation.

   Each tree owns one flat arena: [create] and every fold build through
   it, so a long-lived tree stops allocating tree storage once the
   arena has grown to its working set.

   Costs: pop O(1) plus folds; append O(1) plus folds; a question
   O(log NK) on the tree plus O(K) per overflow entry in its range, the
   scans amortized against the folds they trigger. *)

(* Observability handles, resolved once per [create] against the run's
   registry (absent on the noop sink, so the hot paths pay a single
   option match). Counter names are shared across instances: every
   tree of a run aggregates into the same series. *)
type stats = {
  s_rebuilds : Obs.Registry.counter;
  s_appends : Obs.Registry.counter;
  s_pops : Obs.Registry.counter;
  s_postpones : Obs.Registry.counter;
  s_expedites : Obs.Registry.counter;
}

type t = {
  arena : Flat_sla_tree.arena;
  mutable tree : Flat_sla_tree.t;  (** over [base_entries] *)
  mutable base_entries : Schedule.entry array;  (** planned starts *)
  mutable head : int;  (** base entries [0 .. head-1] already executed *)
  mutable delay : float;  (** true time = planned time + delay *)
  pending : Schedule.entry Deque.t;
      (** the overflow: live queries past the base, in schedule order,
          with planned starts *)
  mutable scanned : int;
      (** overflow entries visited by probes since the last build or
          drain *)
  mutable tail_time : float;  (** planned end of the current schedule *)
  mutable rebuilds : int;
  stats : stats option;
}

let bump stats f =
  match stats with None -> () | Some s -> Obs.Registry.incr (f s)

let live_base t = Array.length t.base_entries - t.head
let length t = live_base t + Deque.length t.pending
let rebuild_count t = t.rebuilds
let pending_count t = Deque.length t.pending
let delay t = t.delay

(* The current live schedule with true starts — also the oracle the
   test suite compares against. *)
let to_entries t =
  let lb = live_base t in
  Array.init (length t) (fun i ->
      let e =
        if i < lb then t.base_entries.(t.head + i)
        else Deque.get t.pending (i - lb)
      in
      { e with Schedule.start = e.Schedule.start +. t.delay })

(* The one build routine: build the tree over [entries] (true starts)
   through the arena and re-anchor the planned timeline on them, so
   delay returns to 0 and the overflow empties. Over no entries the
   schedule end stays where it was. *)
let load t entries =
  let n = Array.length entries in
  if n > 0 then t.tail_time <- Schedule.completion entries.(n - 1);
  t.tree <- Flat_sla_tree.build t.arena entries;
  t.base_entries <- entries;
  t.head <- 0;
  t.delay <- 0.0;
  t.scanned <- 0;
  Deque.clear t.pending

(* Fold the overflow in: rebuild over the true-start live schedule,
   which is never empty here. *)
let fold t =
  load t (to_entries t);
  t.rebuilds <- t.rebuilds + 1;
  bump t.stats (fun s -> s.s_rebuilds)

let create ?(obs = Obs.noop) ~now queries =
  let stats =
    if not (Obs.enabled obs) then None
    else begin
      let reg = Obs.registry obs in
      Some
        {
          s_rebuilds = Obs.Registry.counter reg "sla_tree.rebuilds";
          s_appends = Obs.Registry.counter reg "sla_tree.appends";
          s_pops = Obs.Registry.counter reg "sla_tree.pops";
          s_postpones = Obs.Registry.counter reg "whatif.postpone_calls";
          s_expedites = Obs.Registry.counter reg "whatif.expedite_calls";
        }
    end
  in
  let arena = Flat_sla_tree.create_arena () in
  let t =
    {
      arena;
      tree = Flat_sla_tree.build arena [||];
      base_entries = [||];
      head = 0;
      delay = 0.0;
      pending = Deque.create ();
      scanned = 0;
      tail_time = now;
      rebuilds = 0;
      stats;
    }
  in
  load t (Schedule.of_queries ~now queries);
  t

(* floor (log2 n), for n >= 1. *)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Rent or buy: fold once the overflow scans have cost more than a
   build over the live buffer, n * (floor(log2 n) + 1) entries. *)
let maybe_fold t =
  let n = length t in
  if t.scanned > n * (log2 n + 1) then fold t

(* FCFS arrival: the query starts when the current schedule ends, in
   the overflow. *)
let append t query =
  bump t.stats (fun s -> s.s_appends);
  let start = t.tail_time in
  Deque.push_back t.pending { Schedule.query; start };
  t.tail_time <- start +. query.Query.est_size;
  maybe_fold t

(* The head of the buffer was executed, taking [actual] time (defaults
   to its estimate). Everything downstream shifts by the difference.
   The head comes from the base while it lasts, then from the
   overflow; a fully popped base is dropped, not rebuilt. *)
let pop_head ?actual t =
  if length t = 0 then invalid_arg "Incr_sla_tree.pop_head: empty buffer";
  bump t.stats (fun s -> s.s_pops);
  let e =
    if live_base t = 0 then Deque.pop_front t.pending
    else begin
      let e = t.base_entries.(t.head) in
      t.head <- t.head + 1;
      if live_base t = 0 then begin
        t.base_entries <- [||];
        t.head <- 0
      end;
      e
    end
  in
  let est = e.Schedule.query.Query.est_size in
  let actual = Option.value actual ~default:est in
  t.delay <- t.delay +. (actual -. est);
  if length t = 0 then begin
    (* Drained: re-anchor the planned timeline at the true instant
       the server became free; nothing is left to fold. *)
    t.tail_time <- e.Schedule.start +. est +. t.delay;
    t.delay <- 0.0;
    t.scanned <- 0
  end
  else maybe_fold t

type question = Postpone | Expedite

(* Delay-shifted prefix question over base ids <= [abs_id], per the
   table in point 2 above. Popped ids (< head) are excluded by
   subtracting their prefix. *)
let base_prefix t q ~tau abs_id =
  let d = t.delay in
  let at id =
    if id < 0 then 0.0
    else begin
      let lt x =
        Flat_sla_tree.prefix_loss (Flat_sla_tree.slack t.tree) Cascade_tree.Lt
          ~n:id ~tau:x
      in
      let le x =
        Flat_sla_tree.prefix_loss (Flat_sla_tree.tardy t.tree) Cascade_tree.Le
          ~n:id ~tau:x
      in
      match q with
      | Postpone -> lt (tau +. d) -. lt d +. (le (-.d) -. le (-.d -. tau))
      | Expedite -> le (tau -. d) -. le (-.d) +. (lt d -. lt (d -. tau))
    end
  in
  if abs_id < t.head then 0.0 else at abs_id -. at (t.head - 1)

(* Scan overflow positions [lo .. hi] (schedule order) unit by unit, on
   the true timeline. *)
let pending_part t q ~tau ~lo ~hi =
  let d = t.delay in
  let acc = ref 0.0 in
  for i = lo to hi do
    let e = Deque.get t.pending i in
    let comps = Sla.components e.Schedule.query.Query.sla in
    for c = 0 to Array.length comps - 1 do
      let s = Schedule.slack e ~bound:comps.(c).Sla.comp_bound -. d in
      let hit =
        match q with
        | Postpone -> s >= 0.0 && s < tau
        | Expedite -> s < 0.0 && -.s <= tau
      in
      acc := !acc +. (if hit then comps.(c).Sla.comp_gain else 0.0)
    done
  done;
  !acc

(* Live range [m..n]: the tree answers the base part, the overflow
   scan the pending part, and the scanned entries count towards the
   next fold. *)
let range t q ~m ~n ~tau =
  let len = length t in
  if m < 0 || n >= len || m > n then
    invalid_arg
      (Printf.sprintf "Incr_sla_tree: bad range [%d, %d] for %d queries" m n
         len);
  if tau < 0.0 then
    invalid_arg
      (match q with
      | Postpone -> "Incr_sla_tree.postpone: negative tau"
      | Expedite -> "Incr_sla_tree.expedite: negative tau");
  if tau = 0.0 then 0.0
  else begin
    let lb = live_base t in
    let base_part =
      if m >= lb then 0.0
      else
        base_prefix t q ~tau (t.head + min n (lb - 1))
        -. (if m = 0 then 0.0 else base_prefix t q ~tau (t.head + m - 1))
    in
    let pend_part =
      if n < lb then 0.0
      else begin
        let lo = max 0 (m - lb) and hi = n - lb in
        t.scanned <- t.scanned + (hi - lo + 1);
        pending_part t q ~tau ~lo ~hi
      end
    in
    (* The answer is a sum of non-negative gains, but after drift or
       pops the base part is a difference of prefix sums, which rounds
       to a few ulps below zero when the counted units are absent.
       Clamp, so a probe never reports a gain where the static tree
       reports none, and callers may bound a loss below by 0. *)
    let r = base_part +. pend_part in
    if r < 0.0 then 0.0 else r
  end

let postpone t ~m ~n ~tau =
  bump t.stats (fun s -> s.s_postpones);
  range t Postpone ~m ~n ~tau

let expedite t ~m ~n ~tau =
  bump t.stats (fun s -> s.s_expedites);
  range t Expedite ~m ~n ~tau
