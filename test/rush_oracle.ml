(* The rush scans without the bound prune, probing every candidate.
   Kept only here, as the oracles of the pruned scans in [What_if]. *)

(* Every probe answered by the tree: [What_if.best_rush] must match it
   bit for bit, and [What_if.best_rush_planned] on the index. *)
let best_rush tree =
  let n = Sla_tree.length tree in
  let best = ref None in
  for i = 0 to n - 1 do
    let g = What_if.rush_net_gain tree i in
    match !best with
    | Some (_, bg) when g <= bg -> ()
    | Some _ | None -> best := Some (i, g)
  done;
  !best

(* Every probe answered by the naive unit scan over
   [Schedule.of_queries ~now planned]: [What_if.best_rush_planned] must
   match it bit for bit. *)
let best_rush_units ~now planned =
  let entries = Schedule.of_queries ~now planned in
  let best = ref None in
  Array.iteri
    (fun i e ->
      let q = e.Schedule.query in
      let tau = q.Query.est_size in
      let g =
        if i = 0 then 0.0
        else
          Query.profit_at q ~completion:(now +. tau)
          -. Query.profit_at q ~completion:(Schedule.completion e)
          -.
          if tau = 0.0 then 0.0
          else Naive_whatif.postpone_by_units entries ~m:0 ~n:(i - 1) ~tau
      in
      match !best with
      | Some (_, bg) when g <= bg -> ()
      | Some _ | None -> best := Some (i, g))
    entries;
  !best

(* The probes the pruned scan makes over [planned]: the candidates
   whose own gain beats the incumbent and whose estimate is non-zero.
   A skipped candidate cannot raise the incumbent, so the unpruned
   incumbent, the running best of the unit scan's gains, is the pruned
   scan's at every position. *)
let probes ~now planned =
  let entries = Schedule.of_queries ~now planned in
  let best = ref 0.0 and count = ref 0 in
  for i = 1 to Array.length entries - 1 do
    let e = entries.(i) in
    let q = e.Schedule.query in
    let tau = q.Query.est_size in
    let own =
      Query.profit_at q ~completion:(now +. tau)
      -. Query.profit_at q ~completion:(Schedule.completion e)
    in
    if own > !best then begin
      if tau <> 0.0 then incr count;
      let g =
        own
        -.
        if tau = 0.0 then 0.0
        else Naive_whatif.postpone_by_units entries ~m:0 ~n:(i - 1) ~tau
      in
      if g > !best then best := g
    end
  done;
  !count

(* Same index and the same gain, bit for bit. *)
let same a b =
  match (a, b) with
  | None, None -> true
  | Some (i, g), Some (j, h) ->
    i = j && Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float h)
  | Some _, None | None, Some _ -> false

(* The same index, and gains within 1e-12 (relative, once they exceed
   1): what a scan and a tree that sum the same gains in different
   orders agree on. *)
let close a b =
  match (a, b) with
  | None, None -> true
  | Some (i, g), Some (j, h) ->
    i = j && Float.abs (g -. h) <= 1e-12 *. Float.max 1.0 (Float.abs h)
  | Some _, None | None, Some _ -> false

let to_string = function
  | None -> "None"
  | Some (i, g) -> Printf.sprintf "Some (%d, %h)" i g
