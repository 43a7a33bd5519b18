(* The rush scans as they ran before the bound prune, probing every
   candidate. Kept only here, as the oracle the pruned scans in
   [What_if] must match: same index, same gain bits. *)

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

let best_rush_incr tree =
  let n = Incr_sla_tree.length tree in
  if n = 0 then None
  else begin
    let entries = Incr_sla_tree.to_entries tree in
    let origin = entries.(0).Schedule.start in
    let best_i = ref 0 and best_gain = ref 0.0 in
    for i = 1 to n - 1 do
      let e = entries.(i) in
      let q = e.Schedule.query in
      let own =
        Query.profit_at q ~completion:(origin +. q.Query.est_size)
        -. Query.profit_at q ~completion:(Schedule.completion e)
      in
      let tau = q.Query.est_size in
      let loss =
        if tau = 0.0 then 0.0
        else Incr_sla_tree.postpone tree ~m:0 ~n:(i - 1) ~tau
      in
      let g = own -. loss in
      if g > !best_gain then begin
        best_i := i;
        best_gain := g
      end
    done;
    Some (!best_i, !best_gain)
  end

(* Same index and the same gain, bit for bit. *)
let same a b =
  match (a, b) with
  | None, None -> true
  | Some (i, g), Some (j, h) ->
    i = j && Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float h)
  | Some _, None | None, Some _ -> false

let to_string = function
  | None -> "None"
  | Some (i, g) -> Printf.sprintf "Some (%d, %h)" i g
