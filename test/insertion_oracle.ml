(* [Dispatchers.insertion_profit] as it ran before the scan: the
   server's buffer planned and speed-scaled, scheduled from its
   estimated free time, an SLA-tree built over that schedule, the
   newcomer ranked ([Planner.insertion_rank], which test_sched pins to
   appending it and re-sorting), and one postpone question asked of
   the tree. Kept only here, as the reference the scan must match, and
   the admission controller replayed on it. *)

let scale_query speed query =
  if speed = 1.0 then query
  else
    Query.make ~id:query.Query.id ~arrival:query.Query.arrival
      ~size:query.Query.size
      ~est_size:(query.Query.est_size /. speed)
      ~sla:query.Query.sla ~retries:query.Query.retries
      ~tenant:query.Query.tenant ()

(* [(delta, exact)]: the tree's answer, and whether the scan must
   match it bit for bit — the newcomer appends (nothing is displaced)
   or has a zero estimate (nothing is postponed). *)
let probe planner sim sid q =
  let srv = Sim.server sim sid in
  let speed = srv.Sim.speed in
  let free_at = Sim.est_free_at sim srv in
  let buffer = Sim.buffer_array srv in
  let planned =
    Array.map (scale_query speed)
      (Planner.planned_queries planner ~now:(Sim.now sim) buffer)
  in
  let tree =
    Sla_tree.of_entries ~now:free_at (Schedule.of_queries ~now:free_at planned)
  in
  let q' = scale_query speed q in
  let pos = Planner.insertion_rank planner ~now:(Sim.now sim) planned q' in
  ( What_if.insertion_delta tree ~query:q' ~pos,
    pos = Array.length planned || q'.Query.est_size = 0.0 )

let insertion_profit planner sim sid q = fst (probe planner sim sid q)

(* The contract: bit-equal where [exact], else within 1e-9 relative. *)
let agrees ~exact ~oracle scan =
  if exact then Int64.bits_of_float scan = Int64.bits_of_float oracle
  else Float.abs (scan -. oracle) <= 1e-9 *. (1.0 +. Float.abs oracle)

(* [Tenancy]'s degraded copy: one class down the registry's ladder,
   same id, tenant and estimate; [None] at the bottom class or for an
   untagged query. *)
let degraded_copy reg q =
  match Tenancy.find reg ~tenant:q.Query.tenant with
  | None -> None
  | Some p ->
    let cls = p.Tenancy.cls + 1 in
    if cls >= Array.length reg.Tenancy.synth.Sla_synth.classes then None
    else
      Some
        (Query.make ~id:q.Query.id ~arrival:q.Query.arrival ~size:q.Query.size
           ~est_size:q.Query.est_size ~retries:q.Query.retries
           ~tenant:q.Query.tenant
           ~sla:(Tenancy.sla_for reg p ~cls ~est:q.Query.est_size)
           ())

(* [Tenancy.admit] under its defaults (EDF pricing, degrade allowed),
   pricing with the tree. A tree net within rounding of the margin
   cannot tell admit from refuse: the tree takes the displaced gains
   as a prefix difference, the scan sums them in rank order, and an
   exact tie (own profit equal to the displaced gains, common under
   tier-scaled gains) lands a few ulps either side of [theta]. Where
   the two verdicts differ on such a probe, and the scan agrees with
   the tree, the replica takes the scan's verdict and counts the
   probe in [ties]. *)
let admit ~theta ~ties reg sim q =
  match Dispatchers.fcfs_best sim q with
  | None -> Sim.Admit
  | Some (sid, _) -> (
    let scan = Dispatchers.insertion_profit Planner.edf sim sid in
    let accepts q =
      let net = insertion_profit Planner.edf sim sid q in
      let s = scan q in
      if
        net >= theta <> (s >= theta)
        && agrees ~exact:false ~oracle:net theta
        && agrees ~exact:false ~oracle:net s
      then begin
        incr ties;
        s >= theta
      end
      else net >= theta
    in
    if accepts q then Sim.Admit
    else
      match degraded_copy reg q with
      | Some q' when accepts q' -> Sim.Degrade q'
      | _ -> Sim.Reject)
