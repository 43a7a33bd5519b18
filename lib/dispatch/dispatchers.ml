(* Dispatchers: concrete [Sim.dispatch] values (paper Secs 2.3, 6.2).

   Round-Robin and LWL are the profit-unaware baselines; the SLA-tree
   dispatcher asks every server the what-if question "what is your
   profit delta if this query joins your buffer?" and picks the
   argmax. *)

type t = { name : string; make : unit -> Sim.dispatch }

let name t = t.name

(* Decision-latency wrapper, mirroring [Schedulers.timed]: handles
   resolved once per instantiation, raw dispatch returned when the
   sink is disabled. A dispatch that raises (e.g. [no_server] during
   pool churn) still took a decision and still spent the time, so the
   latency observation and the decision count are recorded on both
   exits — otherwise [dispatch.decision_ns] silently under-reports
   exactly the churny intervals it should be illuminating. *)
let timed obs dispatch =
  if not (Obs.enabled obs) then dispatch
  else begin
    let reg = Obs.registry obs in
    let lat = Obs.Registry.histogram reg "dispatch.decision_ns" in
    let n = Obs.Registry.counter reg "dispatch.decisions" in
    let rejected = Obs.Registry.counter reg "dispatch.rejected" in
    let record t0 =
      Obs.Registry.observe lat (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
      Obs.Registry.incr n
    in
    fun sim q ->
      let t0 = Obs.now_ns () in
      match dispatch sim q with
      | d ->
        record t0;
        if d.Sim.target = None then Obs.Registry.incr rejected;
        d
      | exception e ->
        record t0;
        raise e
  end

(* Each run gets a fresh closure so stateful dispatchers (Round-Robin's
   counter) do not leak state across repeats. *)
let instantiate ?(obs = Obs.noop) t = timed obs (t.make ())

(* Constructor for dispatchers defined outside this module (SITA and
   friends). *)
let v ~name make = { name; make }

(* All dispatchers consider only servers currently accepting work
   (booting and draining servers are skipped — see Sim's pool life
   cycle); on a static pool every server qualifies and behavior is
   unchanged. *)

let no_server () = invalid_arg "Dispatchers: no server accepts work"

(* Uniformly random dispatchable server — the weakest sensible
   baseline. Draw order matches the static-pool stream: index k among
   the dispatchable servers in sid order. *)
let random ~seed =
  {
    name = "Random";
    make =
      (fun () ->
        let rng = Prng.create seed in
        fun sim _q ->
          let m = Sim.n_servers sim in
          let avail = ref 0 in
          for sid = 0 to m - 1 do
            if Sim.dispatchable sim sid then incr avail
          done;
          if !avail = 0 then no_server ();
          let k = ref (Prng.int rng !avail) and chosen = ref (-1) in
          for sid = 0 to m - 1 do
            if Sim.dispatchable sim sid then begin
              if !k = 0 && !chosen < 0 then chosen := sid;
              decr k
            end
          done;
          { Sim.target = Some !chosen; est_delta = None });
  }

let round_robin =
  {
    name = "RR";
    make =
      (fun () ->
        let next = ref 0 in
        fun sim _q ->
          let m = Sim.n_servers sim in
          let rec find tries sid =
            if tries >= m then no_server ()
            else if Sim.dispatchable sim sid then sid
            else find (tries + 1) ((sid + 1) mod m)
          in
          let sid = find 0 (!next mod m) in
          next := (sid + 1) mod m;
          { Sim.target = Some sid; est_delta = None });
  }

(* Least-work-left: the server with the smallest estimated backlog,
   ties to the lowest sid. Each speed class's least-work member is its
   only candidate ([Sim.least_work]). *)
let lwl =
  {
    name = "LWL";
    make =
      (fun () sim _q ->
        let champs = Sim.least_work sim in
        let best = ref (-1) and best_work = ref infinity in
        for i = 0 to Array.length champs - 1 do
          let sid = champs.(i) in
          if sid >= 0 then begin
            let w = Sim.est_work_left sim (Sim.server sim sid) in
            if !best < 0 || w < !best_work || (w = !best_work && sid < !best)
            then begin
              best := sid;
              best_work := w
            end
          end
        done;
        if !best < 0 then no_server ();
        { Sim.target = Some !best; est_delta = None });
  }

(* Profit delta of adding [q] to server [sid], whose scheduler plans
   with [planner] (Sec 6.2): the newcomer's own profit at the slot the
   planner would give it, minus the postpone loss it inflicts on the
   queries planned behind that slot.

   Heterogeneous farms (the paper's explicit claim: "the potential
   impact ... is computed based on the execution time of q on Si"):
   each server sees execution times scaled by its own speed, so the
   what-if is evaluated on speed-adjusted copies of the queries. *)
let scale_query speed query =
  if speed = 1.0 then query
  else
    Query.make ~id:query.Query.id ~arrival:query.Query.arrival
      ~size:query.Query.size
      ~est_size:(query.Query.est_size /. speed)
      ~sla:query.Query.sla ~retries:query.Query.retries
      ~tenant:query.Query.tenant ()

(* One question asks for no tree: a build costs O(NK log NK) and pays
   only over many questions (Sec 5), while this one touches just the
   queries the newcomer displaces. The buffer is planned once per
   server; each priced query then walks the plan.

   Starts accumulate from [free_at] exactly as [Schedule.of_queries]
   does, so the newcomer's own profit is the tree path's float. The
   loss counts the displaced units with [0 <= slack < tau], the slack
   tree's postpone test, summed in rank order; each slack is written
   out as [(arrival + bound) - completion], the float operations of
   [Schedule.slack]. No float is boxed for a call: the default build
   inlines [Query.profit_at] and [Sla.profit] (under [--profile dev]
   the newcomer's profit call boxes its completion and its result).

   The rank counts the scaled plan's entries whose key pair is <= the
   scaled newcomer's ([Planner.insertion_rank]): the keys of the scaled
   estimates, as a re-plan of the scaled buffer would sort them. At
   speed 1.0 the plan holds the buffer's own queries, so the rank reads
   the keys the plan was sorted by ([Planner.planned_with_rank]). *)
let insertion_profit planner sim sid =
  let srv = Sim.server sim sid in
  let speed = srv.Sim.speed in
  let free_at = Sim.est_free_at sim srv in
  if Sim.buffer_length srv = 0 then (fun q ->
    let q' = scale_query speed q in
    Query.profit_at q' ~completion:(free_at +. q'.Query.est_size))
  else begin
    let now = Sim.now sim in
    let buffer = Sim.buffer_array srv in
    let planned, rank =
      if speed = 1.0 then Planner.planned_with_rank planner ~now buffer
      else begin
        let planned =
          Array.map (scale_query speed)
            (Planner.planned_queries planner ~now buffer)
        in
        (planned, Planner.insertion_rank planner ~now planned)
      end
    in
    let n = Array.length planned in
    fun q ->
      let q' = scale_query speed q in
      let pos = rank q' in
      let tau = q'.Query.est_size in
      let t = ref free_at in
      for k = 0 to pos - 1 do
        t := !t +. planned.(k).Query.est_size
      done;
      let own = Query.profit_at q' ~completion:(!t +. tau) in
      if tau = 0.0 then own
      else begin
        let lost = ref 0.0 in
        for k = pos to n - 1 do
          let p = planned.(k) in
          let completion = !t +. p.Query.est_size in
          lost :=
            Sla.add_postpone_loss p.Query.sla ~arrival:p.Query.arrival
              ~completion ~tau !lost;
          t := completion
        done;
        own -. !lost
      end
  end

(* With [admission] set, a query whose best profit delta is negative
   is rejected outright. *)
let decide ~admission sid d =
  if admission && d < 0.0 then { Sim.target = None; est_delta = Some d }
  else { Sim.target = Some sid; est_delta = Some d }

(* SLA-tree dispatching. Profit decides; exact profit ties (common
   when every candidate server meets the query's deadline anyway) fall
   back to least work left, so indifference does not pile queries onto
   server 0, and then to the lowest sid. *)
let argmax_profit ~admission planner sim q =
  let m = Sim.n_servers sim in
  let best = ref (-1)
  and best_delta = ref neg_infinity
  and best_work = ref infinity in
  for sid = 0 to m - 1 do
    if Sim.dispatchable sim sid then begin
      let d = insertion_profit planner sim sid q in
      let w = Sim.est_work_left sim (Sim.server sim sid) in
      if !best < 0 || d > !best_delta || (d = !best_delta && w < !best_work)
      then begin
        best := sid;
        best_delta := d;
        best_work := w
      end
    end
  done;
  if !best < 0 then no_server ();
  decide ~admission !best !best_delta

let sla_tree ?(admission = false) planner =
  {
    name = (if admission then "SLA-tree+AC" else "SLA-tree");
    make = (fun () -> argmax_profit ~admission planner);
  }

(* The FCFS fast path. Under FCFS the newcomer always
   ranks last ([insertion_rank] = N), so [What_if.insertion_delta]
   postpones nobody: the what-if collapses to the newcomer's own
   profit at the end of the server's estimated schedule. That tail is
   exactly [now + est_work_left] — the accumulator the simulator
   already maintains per server — so each server's answer is O(1),
   with no plan of its buffer and no scan. Same answers as [sla_tree
   Planner.fcfs], including on heterogeneous farms (the schedule tail
   and the newcomer's execution time are both speed-scaled, like
   [insertion_profit]'s scaled copies). *)
let insertion_profit_fcfs sim sid q =
  let srv = Sim.server sim sid in
  Query.profit_at q
    ~completion:
      (Sim.now sim
      +. Sim.est_work_left sim srv
      +. (q.Query.est_size /. srv.Sim.speed))

(* [argmax_profit]'s rule over [insertion_profit_fcfs], asked only of
   each speed class's least-work member ([Sim.least_work]). The
   appended profit is a function of the completion time [c] alone and
   never rises with it ([Sla.make]); within a class [c] never falls as
   [w] grows, so the least-work member earns the class's most profit
   and wins its ties. [c] is [insertion_profit_fcfs]'s expression, bit
   for bit. *)
let fcfs_best sim q =
  let champs = Sim.least_work sim in
  let now = Sim.now sim and est = q.Query.est_size in
  let best = ref (-1)
  and best_delta = ref neg_infinity
  and best_work = ref infinity in
  for i = 0 to Array.length champs - 1 do
    let sid = champs.(i) in
    if sid >= 0 then begin
      let srv = Sim.server sim sid in
      let w = Sim.est_work_left sim srv in
      let d =
        Query.profit_at q ~completion:(now +. w +. (est /. srv.Sim.speed))
      in
      if
        !best < 0
        || d > !best_delta
        || (d = !best_delta && (w < !best_work || (w = !best_work && sid < !best)))
      then begin
        best := sid;
        best_delta := d;
        best_work := w
      end
    end
  done;
  if !best < 0 then None else Some (!best, !best_delta)

let fcfs_sla_tree ?(admission = false) () =
  {
    name = (if admission then "SLA-tree+AC(FCFS)" else "SLA-tree(FCFS)");
    make =
      (fun () sim q ->
        match fcfs_best sim q with
        | Some (sid, d) -> decide ~admission sid d
        | None -> no_server ());
  }

let fcfs_sla_tree_incr = fcfs_sla_tree
