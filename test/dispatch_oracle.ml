(* The FCFS dispatch scan as it ran before the bound prune: every
   dispatchable server's appended profit, argmax by profit, then least
   work left, then lowest sid. Kept only here, as the oracle
   [Dispatchers.fcfs_sla_tree_incr] must match: same target, same
   [est_delta] bits. *)

let dispatch ~admission sim q =
  let m = Sim.n_servers sim in
  let best = ref (-1)
  and best_delta = ref neg_infinity
  and best_work = ref infinity in
  for sid = 0 to m - 1 do
    if Sim.dispatchable sim sid then begin
      let d = Dispatchers.insertion_profit_fcfs sim sid q in
      let w = Sim.est_work_left sim (Sim.server sim sid) in
      if !best < 0 || d > !best_delta || (d = !best_delta && w < !best_work)
      then begin
        best := sid;
        best_delta := d;
        best_work := w
      end
    end
  done;
  if !best < 0 then invalid_arg "Dispatch_oracle: no server accepts work";
  if admission && !best_delta < 0.0 then
    { Sim.target = None; est_delta = Some !best_delta }
  else { Sim.target = Some !best; est_delta = Some !best_delta }

let bits = Option.map Int64.bits_of_float

(* Same target and the same delta, bit for bit. *)
let same (a : Sim.decision) (b : Sim.decision) =
  a.target = b.target && bits a.est_delta = bits b.est_delta
