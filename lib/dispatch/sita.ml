(* Size-Interval Task Assignment (SITA), the dispatching baseline of
   Schroeder & Harchol-Balter cited in paper Sec 2.3: queries are
   classified by (estimated) execution time and each size class owns a
   dedicated server, so short queries never queue behind monsters.

   The classic SITA-E variant picks the interval cutoffs so that every
   class carries an equal share of the expected work; [cutoffs_equal_work]
   derives them from a sample of the workload. *)

(* Interior cutoffs c_1 < ... < c_{k-1} splitting the sampled total
   work into [classes] equal shares: class i serves sizes in
   (c_i, c_{i+1}]. With heavy tails the top class may hold only a few
   giant queries — that is SITA working as intended. *)
let cutoffs_equal_work ~sizes ~classes =
  if classes < 1 then invalid_arg "Sita.cutoffs_equal_work: classes < 1";
  if Array.length sizes = 0 then
    invalid_arg "Sita.cutoffs_equal_work: empty sample";
  let sorted = Array.copy sizes in
  Array.sort Float.compare sorted;
  let total = Arrayx.sum_float sorted in
  let cutoffs = Array.make (classes - 1) 0.0 in
  let acc = ref 0.0 in
  let next = ref 0 in
  Array.iter
    (fun s ->
      acc := !acc +. s;
      while
        !next < classes - 1
        && !acc >= total *. Float.of_int (!next + 1) /. Float.of_int classes
      do
        cutoffs.(!next) <- s;
        incr next
      done)
    sorted;
  (* Degenerate samples (all equal, or extreme skew) can leave trailing
     cutoffs unset; pin them to the max so the classes stay ordered. *)
  let max_size = sorted.(Array.length sorted - 1) in
  for i = !next to classes - 2 do
    cutoffs.(i) <- max_size
  done;
  cutoffs

(* Class of a query size under the given interior cutoffs: the number
   of cutoffs strictly below it, in [0 .. Array.length cutoffs]. *)
let class_of ~cutoffs size =
  let k = Array.length cutoffs in
  let rec go i = if i >= k || size <= cutoffs.(i) then i else go (i + 1) in
  go 0

(* SITA dispatcher: server [class mod m]. When there are more servers
   than classes the spare servers host the spill of the largest class
   via least-work-left among the class's servers. *)
let dispatcher ~cutoffs =
  Dispatchers.v ~name:"SITA" (fun () sim q ->
      let m = Sim.n_servers sim in
      let classes = Array.length cutoffs + 1 in
      let c = class_of ~cutoffs q.Query.est_size in
      (* Servers assigned to class c: those with sid mod classes = c
         (spares host the spill), least-work-left within the class. *)
      let best = ref (-1) and best_work = ref infinity in
      let consider sid =
        if Sim.dispatchable sim sid then begin
          let w = Sim.est_work_left sim (Sim.server sim sid) in
          if w < !best_work then begin
            best := sid;
            best_work := w
          end
        end
      in
      for sid = 0 to m - 1 do
        if sid mod classes = c mod classes then consider sid
      done;
      (* Elastic pools can leave a class with no accepting server;
         spill to least-work-left over whoever accepts. *)
      if !best < 0 then
        for sid = 0 to m - 1 do
          consider sid
        done;
      if !best < 0 then invalid_arg "Sita: no server accepts work";
      { Sim.target = Some !best; est_delta = None })

(* Build a SITA dispatcher for a workload from 10 000 sampled sizes:
   the paper's experimental setting gives the dispatcher distribution
   knowledge, not trace knowledge. *)
let for_workload ~seed kind ~classes =
  let rng = Prng.create seed in
  let dist = Workloads.dist kind in
  let sizes = Array.init 10_000 (fun _ -> Service_dist.sample dist rng) in
  dispatcher ~cutoffs:(cutoffs_equal_work ~sizes ~classes)
