(* Schedulers: concrete [Sim.pick_next] values.

   A baseline scheduler simply runs the head of its planner's order,
   found in one pass without sorting ([Planner.head]).
   The SLA-tree enhancement (paper Sec 6.1) rushes the query with the
   best net profit gain over the planned order:
     argmax_i  own_gain(q_i) - postpone(0, i-1, est_size_i),
   building the SLA-tree only once some candidate can win
   ([What_if.best_rush_planned]).

   Stateless schedulers share one closure; the incremental FCFS
   variant carries per-run state (one live Incr_sla_tree per server)
   and must be wired to [Sim.run]'s [on_server_event] — hence the
   [instantiate] pattern below. *)

type hook = sid:int -> now:float -> Sim.server_event -> unit

type t = { name : string; make : Obs.t -> Sim.pick_next * hook option }

let name t = t.name

(* Decision-latency wrapper. Handles are resolved here, once per
   instantiation; the disabled path returns the raw pick so runs over
   [Obs.noop] pay nothing at all on this layer. *)
let timed obs pick =
  if not (Obs.enabled obs) then pick
  else begin
    let reg = Obs.registry obs in
    let lat = Obs.Registry.histogram reg "sched.decision_ns" in
    let n = Obs.Registry.counter reg "sched.decisions" in
    fun ~now buffer ->
      let t0 = Obs.now_ns () in
      let i = pick ~now buffer in
      Obs.Registry.observe lat (Int64.to_float (Int64.sub (Obs.now_ns ()) t0));
      Obs.Registry.incr n;
      i
  end

let instantiate ?(obs = Obs.noop) t =
  let pick, hook = t.make obs in
  (timed obs pick, hook)

let pick t = fst (t.make Obs.noop)

let stateless name pick = { name; make = (fun _obs -> (pick, None)) }

let of_planner planner =
  stateless (Planner.name planner) (Planner.head planner)

let with_sla_tree planner =
  stateless
    (Planner.name planner ^ "+SLA-tree")
    (fun ~now buffer ->
      let perm = Planner.plan planner ~now buffer in
      let planned = Array.map (fun i -> buffer.(i)) perm in
      match What_if.best_rush_planned ~now planned with
      | None -> invalid_arg "Schedulers.with_sla_tree: empty buffer"
      | Some (i, _gain) -> perm.(i))

(* The incremental fast path: FCFS keeps the planned order equal to
   the buffer order, so a per-server Incr_sla_tree tracks the schedule
   across decisions (pop on completion, append on dispatch) and the
   rush decision skips the per-decision rebuild. Picks are identical
   to [with_sla_tree Planner.fcfs]. *)
let fcfs_sla_tree_incr =
  {
    name = "FCFS+SLA-tree(incr)";
    make =
      (fun obs ->
        let st = Incr_sched.create ~obs () in
        (Incr_sched.pick st, Some (Incr_sched.hook st)));
  }

let fcfs = of_planner Planner.fcfs
let sjf = of_planner Planner.sjf
let edf = of_planner Planner.edf
let value_edf = of_planner Planner.value_edf
let cbs ~rate = of_planner (Planner.cbs ~rate)
let fcfs_sla_tree = with_sla_tree Planner.fcfs
let sjf_sla_tree = with_sla_tree Planner.sjf
let edf_sla_tree = with_sla_tree Planner.edf
let value_edf_sla_tree = with_sla_tree Planner.value_edf
let cbs_sla_tree ~rate = with_sla_tree (Planner.cbs ~rate)
