(* Shared experiment plumbing: named policy sets and the cell runner
   of the simulation grids. *)

type sched_kind = Fcfs | Fcfs_tree | Cbs | Cbs_tree

let sched_name = function
  | Fcfs -> "FCFS"
  | Fcfs_tree -> "FCFS+SLA-tree"
  | Cbs -> "CBS"
  | Cbs_tree -> "CBS+SLA-tree"

(* CBS's memoryless waiting-time rate: one over the workload's mean
   execution time. *)
let cbs_rate kind = 1.0 /. Workloads.nominal_mean_ms kind

let scheduler_of kind wl =
  match kind with
  | Fcfs -> Schedulers.fcfs
  | Fcfs_tree -> Schedulers.fcfs_sla_tree
  | Cbs -> Schedulers.cbs ~rate:(cbs_rate wl)
  | Cbs_tree -> Schedulers.cbs_sla_tree ~rate:(cbs_rate wl)

type disp_kind = Lwl_cbs | Lwl_tree_sched | Tree_tree

let disp_name = function
  | Lwl_cbs -> "LWL / CBS"
  | Lwl_tree_sched -> "LWL / CBS+SLA-tree"
  | Tree_tree -> "SLA-tree / CBS+SLA-tree"

(* Dispatching experiments (Sec 7.3) keep CBS as the base scheduling;
   the SLA-tree dispatcher plans buffers with the CBS order. *)
let dispatch_setup kind wl =
  let rate = cbs_rate wl in
  let planner = Planner.cbs ~rate in
  match kind with
  | Lwl_cbs -> (Dispatchers.lwl, Schedulers.cbs ~rate)
  | Lwl_tree_sched -> (Dispatchers.lwl, Schedulers.cbs_sla_tree ~rate)
  | Tree_tree -> (Dispatchers.sla_tree planner, Schedulers.cbs_sla_tree ~rate)

(* ------------------------------------------------------------------ *)
(* The cell runner of every Sim.run grid. Cells come back in spec order
   and repeats in repeat order whatever the worker count, and means
   fold in that order: the [-j N] determinism contract. *)

(* [f ~seed] on each repeat's seed. Repeats are independent (each
   builds its own trace, metrics and dispatcher state), so they fan out
   across the ambient pool, serially inside a pooled cell. *)
let repeats (scale : Exp_scale.t) f =
  Parallel.map_ordered
    (fun repeat -> f ~seed:(Exp_scale.seed scale ~repeat))
    (Array.init scale.repeats Fun.id)

(* Welford mean in array order; a plain sum / n would move the bits. *)
let mean xs =
  let acc = Stats.create () in
  Array.iter (Stats.add acc) xs;
  Stats.mean acc

let run ?speeds ?drop_policy ?on_complete ~n_servers ~scheduler ~dispatcher
    ~warmup queries =
  let metrics = Metrics.create ~warmup_id:warmup () in
  Sim.run ?on_complete ?speeds ?drop_policy ~queries ~n_servers
    ~pick_next:(Schedulers.pick scheduler)
    ~dispatch:(Dispatchers.instantiate dispatcher)
    ~metrics ();
  metrics

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let grid ?(profiles = Workloads.all_profiles) ?(kinds = Workloads.all_kinds)
    ~cols ~rows cell =
  product (product profiles kinds) (product cols rows)
  |> Parallel.map_list (fun ((profile, kind), (col, row)) ->
         cell profile kind col row)

let grid_report ~title ~cols ~col_name ~rows ~row_name cells =
  let groups = product Workloads.all_profiles Workloads.all_kinds in
  let value row (profile, kind) col =
    Option.value (List.assoc_opt (profile, kind, col, row) cells) ~default:Float.nan
  in
  {
    Report.title;
    col_groups =
      List.map
        (fun (profile, kind) ->
          ( Workloads.profile_name profile ^ " " ^ Workloads.kind_name kind,
            List.map col_name cols ))
        groups;
    rows =
      List.map
        (fun row ->
          ( row_name row,
            Array.of_list (List.concat_map (fun g -> List.map (value row g) cols) groups) ))
        rows;
  }
