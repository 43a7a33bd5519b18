(* The "what if" questions the applications ask (paper Sec 6).

   All deltas use estimated execution times; positive means more
   profit. *)

(* Profit change for the query itself if it is rushed from its
   scheduled slot to execute immediately at [now]. *)
let own_rush_gain tree i =
  let e = Sla_tree.entry tree i in
  let q = e.Schedule.query in
  let rushed_completion = Sla_tree.now tree +. q.Query.est_size in
  Query.profit_at q ~completion:rushed_completion
  -. Query.profit_at q ~completion:(Schedule.completion e)

(* Net profit change of rushing query [i] to the front (Sec 6.1):
   the query's own gain minus the loss from postponing its
   predecessors by its execution time. Rushing query 0 changes
   nothing. *)
let rush_net_gain tree i =
  if i = 0 then 0.0
  else begin
    let e = Sla_tree.entry tree i in
    let tau = e.Schedule.query.Query.est_size in
    let loss =
      if tau = 0.0 then 0.0 else Sla_tree.postpone tree ~m:0 ~n:(i - 1) ~tau
    in
    own_rush_gain tree i -. loss
  end

(* The rush scan behind every entry point below. Candidate [i] of [n]
   nets its own gain — the profit change from completing at
   [origin + est_i] instead of at [completion (entry i)] — minus
   [loss ~n:(i - 1) ~tau:est_i], the postpone loss of its predecessors.
   The head seeds the incumbent at 0.0 (rushing it changes nothing) and
   only a strictly better gain replaces the incumbent, so ties keep the
   earliest position.

   Bound: the loss is a sum of non-negative unit gains, so a candidate
   nets at most its own gain. One whose own gain does not beat the
   incumbent cannot win, and its probe is skipped; the argmax and the
   returned gain are those of the scan that probes every candidate. *)
let scan n ~entry ~origin ~completion ~loss =
  if n = 0 then None
  else begin
    let best_i = ref 0 and best_gain = ref 0.0 in
    for i = 1 to n - 1 do
      let e = entry i in
      let q = e.Schedule.query in
      let tau = q.Query.est_size in
      let own =
        Query.profit_at q ~completion:(origin +. tau)
        -. Query.profit_at q ~completion:(completion e)
      in
      if own > !best_gain then begin
        let g = own -. if tau = 0.0 then 0.0 else loss ~n:(i - 1) ~tau in
        if g > !best_gain then begin
          best_i := i;
          best_gain := g
        end
      end
    done;
    Some (!best_i, !best_gain)
  end

let best_rush tree =
  scan (Sla_tree.length tree) ~entry:(Sla_tree.entry tree)
    ~origin:(Sla_tree.now tree) ~completion:Schedule.completion
    ~loss:(Sla_tree.postpone tree ~m:0)

(* The static decision without a tree in hand: the tree over [planned]
   is built on the first candidate that passes the bound, and not at
   all when none does. *)
let best_rush_planned ~now planned =
  let entries = Schedule.of_queries ~now planned in
  let tree = lazy (Sla_tree.of_entries ~now entries) in
  scan (Array.length entries) ~entry:(Array.get entries) ~origin:now
    ~completion:Schedule.completion ~loss:(fun ~n ~tau ->
      Sla_tree.postpone (Lazy.force tree) ~m:0 ~n ~tau)

(* Against a live incremental tree, reading the live schedule in place:
   a true start is the planned start plus the tree's delay. The rush
   origin is the head's true start, which at a scheduling point equals
   the decision time (the head was just popped there). A probe never
   folds the tree's overflow, so the delay and the entries read here
   stay valid across every probe of the scan. *)
let best_rush_incr tree =
  let n = Incr_sla_tree.length tree in
  if n = 0 then None
  else begin
    let d = Incr_sla_tree.delay tree in
    scan n ~entry:(Incr_sla_tree.planned tree)
      ~origin:((Incr_sla_tree.planned tree 0).Schedule.start +. d)
      ~completion:(fun e ->
        e.Schedule.start +. d +. e.Schedule.query.Query.est_size)
      ~loss:(Incr_sla_tree.postpone tree ~m:0)
  end

(* Net profit change of inserting [query] at buffer position [pos]
   (Sec 6.2): the newcomer's own profit at its would-be completion,
   minus the loss from postponing every query at positions [pos..N-1]
   by the newcomer's execution time. [pos = N] appends. *)
let insertion_delta tree ~query ~pos =
  let n = Sla_tree.length tree in
  if pos < 0 || pos > n then invalid_arg "What_if.insertion_delta: bad position";
  let start =
    if pos = n then
      if n = 0 then Sla_tree.now tree
      else Schedule.completion (Sla_tree.entry tree (n - 1))
    else (Sla_tree.entry tree pos).Schedule.start
  in
  let own = Query.profit_at query ~completion:(start +. query.Query.est_size) in
  let tau = query.Query.est_size in
  let displaced =
    if pos >= n || tau = 0.0 then 0.0
    else Sla_tree.postpone tree ~m:pos ~n:(n - 1) ~tau
  in
  own -. displaced

(* Profit the query would earn on a fictitious idle server (Sec 6.3):
   it starts immediately at [now]. *)
let idle_server_profit ~now query =
  Query.profit_at query ~completion:(now +. query.Query.est_size)

(* ------------------------------------------------------------------ *)
(* Applications of expedite() — the family the paper mentions but cut
   for space (footnote 4). *)

(* Profit recovered if a helper (e.g. a borrowed server or a faster
   replica) lets the whole buffer start [tau] earlier, for each tau in
   [taus]: the marginal-recovery curve a capacity borrower would
   inspect. *)
let recovery_curve tree ~taus =
  let n = Sla_tree.length tree in
  List.map
    (fun tau -> (tau, Sla_tree.expedite tree ~m:0 ~n:(n - 1) ~tau))
    taus

(* Maintenance-window planning: a pause of [duration] inserted before
   buffer position [p] postpones queries [p .. N-1] by [duration].
   Returns the position minimizing the profit loss, with that loss
   (ties resolve to the latest position, i.e. maintenance as late as
   possible). [N] (after everything) is always a candidate and loses
   nothing by definition of the current buffer — but the returned
   comparison across interior slots is the interesting part when the
   window must start before a hard deadline. *)
let best_maintenance_slot ?latest_start tree ~duration =
  if duration < 0.0 then
    invalid_arg "What_if.best_maintenance_slot: negative duration";
  let n = Sla_tree.length tree in
  let slot_start p =
    if p = 0 then Sla_tree.now tree
    else Schedule.completion (Sla_tree.entry tree (p - 1))
  in
  let allowed p =
    match latest_start with None -> true | Some t -> slot_start p <= t
  in
  let loss p =
    if p >= n then 0.0 else Sla_tree.postpone tree ~m:p ~n:(n - 1) ~tau:duration
  in
  (* Scan from the latest slot down and only ever replace the running
     best on a STRICT improvement: the first slot seen at the minimum
     loss is the latest one, so the documented tie-break holds without
     any float-equality test. *)
  let best = ref None in
  for p = n downto 0 do
    if allowed p then begin
      let l = loss p in
      match !best with
      | Some (_, bl) when l >= bl -> ()
      | Some _ | None -> best := Some (p, l)
    end
  done;
  !best

(* Loss already incurred by an unplanned stall: if the server has been
   frozen for [stall] time units beyond the schedule the tree was
   built on, this is the profit that slipped away — and the second
   component is how much of it a catch-up speedup of [catch_up] would
   claw back. *)
let stall_impact tree ~stall ~catch_up =
  let n = Sla_tree.length tree in
  let lost = Sla_tree.postpone tree ~m:0 ~n:(n - 1) ~tau:stall in
  let recovered =
    if catch_up <= 0.0 then 0.0
    else begin
      (* After the stall, expediting by catch_up recovers units whose
         post-stall tardiness is within catch_up: those with original
         slack in [stall - catch_up, stall). *)
      let tree_loss tau =
        if tau <= 0.0 then 0.0 else Sla_tree.postpone tree ~m:0 ~n:(n - 1) ~tau
      in
      lost -. tree_loss (stall -. catch_up)
    end
  in
  (lost, recovered)
