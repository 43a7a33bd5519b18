(* The experiment workload: the paper's Table 2 scheduling grid — 72
   cells (SLA profile x workload kind x load x the four schedulers of
   [Table2.schedulers]), one server, round-robin dispatch, each cell the
   mean loss over its repeats. The only workload that rebuilds a flat
   SLA-tree and runs the rush scan on every decision.

   The traces are the ones [Table2.compute] generates at the paper
   protocol's own seed, made before the timed phase. They do not vary
   with the benchmark seed: the heavy-tailed Pareto cells make the
   grid's work swing 2-5x from one trace seed to the next, which would
   drown any change in the code. The seed instead fixes the order in
   which the 72 cell jobs reach the [Parallel] pool.

   The timed passes run the grid serially. At -j 2 on a shared 2-core
   virtual machine the grid's wall time varied two-fold between runs
   while the host stole CPU; every minor collection stops all domains,
   so losing one core stalls both workers. Each run still runs the grid
   once at -j 2 and checks it against the serial cells, and the traced
   run reports the pool (parallel.speedup against parallel.serial_s).
   Each cell runs its repeats through the session pass the simulator
   workloads use, which times every arrival. *)

let jobs = 2

let scale =
  { Exp_scale.n_queries = 1_500; warmup = 750; repeats = 3;
    base_seed = Exp_scale.default.Exp_scale.base_seed }

type cell = {
  profile : Workloads.sla_profile;
  kind : Workloads.kind;
  load : float;
  sched : Exp_common.sched_kind;
}

(* Table 2's spec order, which [Table2.compute] returns cells in. *)
let cells =
  List.concat_map
    (fun profile ->
      List.concat_map
        (fun kind ->
          List.concat_map
            (fun load -> List.map (fun sched -> { profile; kind; load; sched }) Table2.schedulers)
            Table2.default_loads)
        Workloads.all_kinds)
    Workloads.all_profiles
  |> Array.of_list

(* One trace per (profile, kind, load, repeat): schedulers share them. *)
let generate () =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      for repeat = 0 to scale.Exp_scale.repeats - 1 do
        let key = (c.profile, c.kind, c.load, repeat) in
        if not (Hashtbl.mem tbl key) then
          Hashtbl.replace tbl key
            (Trace.generate
               (Trace.config ~kind:c.kind ~profile:c.profile ~load:c.load ~servers:1
                  ~n_queries:scale.n_queries ~seed:(Exp_scale.seed scale ~repeat) ()))
      done)
    cells;
  tbl

type result = { avg_loss : float; lat_us : float array; cell_s : float }

(* A cell's repeats, their losses folded in repeat order exactly as
   [Exp_common.avg_loss_over_repeats] folds them. *)
let run_cell ~traced inputs c =
  let t0 = Measure.now_ns () in
  if traced then Tracer.enter Tracer.Parallel;
  let acc = Stats.create () in
  let lats =
    List.init scale.Exp_scale.repeats (fun repeat ->
        let p =
          Wl_sim.session_pass ~traced
            ~scheduler:(Exp_common.scheduler_of c.sched c.kind)
            ~dispatcher:Dispatchers.round_robin ~n_servers:1 ~warmup:scale.warmup
            (Hashtbl.find inputs (c.profile, c.kind, c.load, repeat))
        in
        Stats.add acc (Metrics.avg_loss p.Wl_sim.metrics);
        p.Wl_sim.lat_us)
  in
  if traced then Tracer.leave ();
  { avg_loss = Stats.mean acc; lat_us = Array.concat lats; cell_s = Measure.secs (Measure.now_ns () - t0) }

(* A pass keeps its cells' losses and times and the pooled median
   arrival latency; the samples themselves are dropped. *)
type pass = { results : result array; wall_s : float; p50_us : float }

(* A seeded permutation of the cell indices (Fisher-Yates). *)
let order ~seed =
  let rng = Prng.create seed in
  let a = Array.init (Array.length cells) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Submits the cells in [order]; results come back in spec order. *)
let grid_pass ~traced ~order inputs =
  let results, wall_s =
    Measure.timed (fun () ->
        let rs = Parallel.map_ordered (fun i -> run_cell ~traced inputs cells.(i)) order in
        let out = Array.make (Array.length cells) rs.(0) in
        Array.iteri (fun k i -> out.(i) <- rs.(k)) order;
        out)
  in
  let p50_us = Measure.percentile (Array.concat (Array.to_list (Array.map (fun r -> r.lat_us) results))) 0.5 in
  { results = Array.map (fun r -> { r with lat_us = [||] }) results; wall_s; p50_us }

(* Serial, in the main domain: every cell alone. *)
let serial_pass inputs =
  let results, wall_s =
    Measure.timed (fun () -> Array.map (run_cell ~traced:false inputs) cells)
  in
  { results; wall_s; p50_us = Float.nan }

let same_cells a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.equal x.avg_loss y.avg_loss) a b

let queries_per_pass = Array.length cells * scale.Exp_scale.repeats * scale.n_queries

let run ~seed ~seconds ~trace =
  let order = order ~seed in
  let c = Measure.checks () in
  let inputs, setup_s = Measure.repeat_setup 9 generate in
  let nq = queries_per_pass in
  let budget = int_of_float (seconds *. 1e9) and t0 = Measure.now_ns () in
  Gc.full_major ();
  let outcome =
    if not trace then begin
      let host = Measure.host () in
      let ps =
        Measure.passes ~host ~seconds ~min_passes:2 (fun () ->
            grid_pass ~traced:false ~order inputs)
      in
      let first = (List.hd ps).results in
      let metrics, notes =
        Measure.end_to_end ~host ~work:(nq * List.length ps)
          ~walls:(List.map (fun p -> p.wall_s) ps)
          ~p50s_us:(List.map (fun p -> p.p50_us) ps)
          ~loss:(Measure.mean (Array.map (fun r -> r.avg_loss) first))
          ~setup_s
      in
      Measure.check c "passes_identical" (List.for_all (fun p -> same_cells p.results first) ps);
      Parallel.set_jobs jobs;
      let par = grid_pass ~traced:false ~order inputs in
      Parallel.set_jobs 1;
      Measure.check c "parallel_equals_serial" (same_cells par.results first);
      (* The library's own grid: the benchmark's cells must equal it bit
         for bit, in spec order. *)
      let lib = Array.of_list (Table2.compute scale) in
      Measure.check c "cells_equal_table2"
        (Array.length lib = Array.length first
        && Array.for_all2 (fun l r -> Float.equal l.Table2.avg_loss r.avg_loss) lib first);
      let failures = Measure.failures c in
      {
        Measure.attempted = nq * (List.length ps + 1);
        failed = List.length failures;
        failures;
        metrics;
        notes;
      }
    end
    else begin
      Parallel.set_jobs jobs;
      let untraced = ref [] and traced = ref [] and serial = ref [] and gc = ref None in
      while !traced = [] || Measure.now_ns () - t0 < budget do
        let p, d = Measure.gc_around (fun () -> grid_pass ~traced:false ~order inputs) in
        untraced := p :: !untraced;
        if !gc = None then gc := Some d;
        Tracer.reset ();
        traced := Tracer.span Tracer.Pass (fun () -> grid_pass ~traced:true ~order inputs) :: !traced;
        serial := serial_pass inputs :: !serial
      done;
      let up = List.hd !untraced and tp = List.hd !traced and sp = List.hd !serial in
      Measure.check c "traced_equals_untraced" (same_cells tp.results up.results);
      Measure.check c "parallel_equals_serial" (same_cells sp.results up.results);
      let agg = Tracer.aggregate () in
      let wall l = Measure.median (Array.of_list (List.map (fun p -> p.wall_s) l)) in
      let cell_s = Array.map (fun r -> r.cell_s) sp.results in
      let values =
        Layers.decision_extras ~agg ~postpone_calls:0 ~rebuilds:0
        @ [
            (* no admission and no drop policy: every query arrives
               and completes once *)
            ("sim.events", Float.of_int (2 * nq));
            ("sim.self_s", Measure.secs agg.(Tracer.layer_index Tracer.Sim).Tracer.self_ns);
            ("parallel.serial_s", wall !serial);
            ("parallel.speedup", wall !serial /. wall !untraced);
            ("parallel.cell_max_s", Array.fold_left Float.max 0.0 cell_s);
            ("parallel.cell_sum_s", Array.fold_left ( +. ) 0.0 cell_s);
            ("obs.overhead_frac", (wall !traced /. wall !untraced) -. 1.0);
          ]
        @ List.map
            (fun mt -> (mt.Measure.name, mt.Measure.value))
            (Measure.gc_metrics ~queries:nq (Option.get !gc))
      in
      let failures = Measure.failures c in
      {
        Measure.attempted = nq * (List.length !untraced + List.length !traced + List.length !serial);
        failed = List.length failures;
        failures;
        metrics = Layers.report ~agg ~wall_s:tp.wall_s values;
        notes = [];
      }
    end
  in
  Parallel.set_jobs 1;
  outcome
