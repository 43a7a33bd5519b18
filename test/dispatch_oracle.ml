(* The SLA-tree dispatch rule with no pruning: every dispatchable
   server's [profit], argmax by profit, then least work left, then
   lowest sid. Kept only here, as an oracle. With the default
   [profit], the appended FCFS profit, it is the scan as it ran before
   the bound prune, which [Dispatchers.fcfs_sla_tree] must match:
   same target, same [est_delta] bits. With the tree-built probe
   [Insertion_oracle.insertion_profit planner], it is the tree-priced
   reference for [Dispatchers.sla_tree planner]. *)

let dispatch ?(profit = Dispatchers.insertion_profit_fcfs) ~admission sim q =
  let m = Sim.n_servers sim in
  let best = ref (-1)
  and best_delta = ref neg_infinity
  and best_work = ref infinity in
  for sid = 0 to m - 1 do
    if Sim.dispatchable sim sid then begin
      let d = profit sim sid q in
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

(* The LWL rule with no index: the dispatchable server with the least
   [Sim.est_work_left], ties to the lowest sid, found by visiting every
   server. Kept only here, as the oracle [Dispatchers.lwl]'s read of
   [Sim.least_work] must match. *)
let lwl sim _q =
  let m = Sim.n_servers sim in
  let best = ref (-1) and best_work = ref infinity in
  for sid = 0 to m - 1 do
    if Sim.dispatchable sim sid then begin
      let w = Sim.est_work_left sim (Sim.server sim sid) in
      if w < !best_work then begin
        best := sid;
        best_work := w
      end
    end
  done;
  if !best < 0 then invalid_arg "Dispatch_oracle: no server accepts work";
  { Sim.target = Some !best; est_delta = None }

let bits = Option.map Int64.bits_of_float

(* Same target and the same delta, bit for bit. *)
let same (a : Sim.decision) (b : Sim.decision) =
  a.target = b.target && bits a.est_delta = bits b.est_delta
