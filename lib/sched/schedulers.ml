(* Schedulers: concrete [Sim.pick_next] values.

   A baseline scheduler simply runs the head of its planner's order,
   found in one pass over the planner's keys without sorting
   ([Planner.head]).
   The SLA-tree enhancement (paper Sec 6.1) rushes the query with the
   best net profit gain over the planned order:
     argmax_i  own_gain(q_i) - postpone(0, i-1, est_size_i),
   pricing each probe by a scan over the candidate's predecessors
   ([What_if.best_rush_planned]). Every scheduler is stateless: a pick
   reads the buffer it is handed and nothing else. *)

type hook = sid:int -> now:float -> Sim.server_event -> unit

type t = { name : string; make : Obs.t -> Sim.pick_next }

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

let instantiate ?(obs = Obs.noop) t = (timed obs (t.make obs), None)
let pick t = t.make Obs.noop

let of_planner planner =
  let head = Planner.head planner in
  { name = Planner.name planner; make = (fun _obs -> head) }

(* With an enabled sink, every rush probe counts into
   [whatif.postpone_calls]; the handle is resolved once, when the pick
   function is made. The FCFS plan is the identity, so over
   [Planner.fcfs] the arrival-ordered buffer is handed to the scan as
   it is: no permutation, no planned copy. A sorting planner's pick
   maps the scan's index back through its permutation. *)
let with_sla_tree planner =
  {
    name = Planner.name planner ^ "+SLA-tree";
    make =
      (fun obs ->
        let probes =
          if Obs.enabled obs then
            Some
              (Obs.Registry.counter (Obs.registry obs) "whatif.postpone_calls")
          else None
        in
        let rush ~now planned =
          match What_if.best_rush_planned ?probes ~now planned with
          | None -> invalid_arg "Schedulers.with_sla_tree: empty buffer"
          | Some (i, _gain) -> i
        in
        if planner == Planner.fcfs then rush
        else fun ~now buffer ->
          let perm = Planner.plan planner ~now buffer in
          perm.(rush ~now (Array.map (fun i -> buffer.(i)) perm)));
  }

let fcfs = of_planner Planner.fcfs
let sjf = of_planner Planner.sjf
let edf = of_planner Planner.edf
let value_edf = of_planner Planner.value_edf
let cbs ~rate = of_planner (Planner.cbs ~rate)
let fcfs_sla_tree = with_sla_tree Planner.fcfs
let fcfs_sla_tree_incr = fcfs_sla_tree
let sjf_sla_tree = with_sla_tree Planner.sjf
let edf_sla_tree = with_sla_tree Planner.edf
let value_edf_sla_tree = with_sla_tree Planner.value_edf
let cbs_sla_tree ~rate = with_sla_tree (Planner.cbs ~rate)
