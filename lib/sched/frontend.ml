(* The paper's Fig 2 interface: a component that sits between an
   existing system's dispatcher and its query executor, owning the
   buffer and answering queryArrive() / getNextQuery(). The SLA-tree
   framework plugs in underneath: every getNextQuery() decision can be
   profit-aware, and the current tree is exposed so dispatchers and
   capacity planners can ask their own what-if questions.

   Decision traces are emitted on the "slatree.frontend" log source at
   debug level. *)

let log_src = Logs.Src.create "slatree.frontend" ~doc:"SLA-tree server frontend"

module Log = (val Logs.src_log log_src)

type t = {
  planner : Planner.t;
  use_sla_tree : bool;
  mutable buffer : Query.t list;  (** arrival order, oldest first *)
  mutable arrivals : int;
  mutable decisions : int;
  mutable rushes : int;  (** decisions that deviated from the planned head *)
}

let create ?(sla_tree = true) planner =
  { planner; use_sla_tree = sla_tree; buffer = []; arrivals = 0; decisions = 0; rushes = 0 }

let buffer_length t = List.length t.buffer
let arrivals t = t.arrivals
let decisions t = t.decisions
let rushes t = t.rushes

(* Fig 2: queryArrive(). *)
let query_arrive t q =
  t.arrivals <- t.arrivals + 1;
  t.buffer <- t.buffer @ [ q ];
  Log.debug (fun m ->
      m "queryArrive q%d (est %.2f ms, buffer %d)" q.Query.id q.Query.est_size
        (List.length t.buffer))

(* The SLA-tree over the current buffer in planned order, anchored at
   [now] — for external what-if questions (dispatching, capacity). *)
let what_if_tree t ~now =
  let planned =
    Planner.planned_queries t.planner ~now (Array.of_list t.buffer)
  in
  Sla_tree.build ~now planned

(* Fig 2: getNextQuery(). Picks per the planner, optionally re-ranked
   by the SLA-tree what-if (Sec 6.1), removes the query from the
   buffer and returns it. *)
let get_next_query t ~now =
  match t.buffer with
  | [] -> None
  | buffer ->
    t.decisions <- t.decisions + 1;
    let arr = Array.of_list buffer in
    let chosen =
      if not t.use_sla_tree then Planner.head t.planner ~now arr
      else begin
        let perm = Planner.plan t.planner ~now arr in
        let planned = Array.map (fun i -> arr.(i)) perm in
        match What_if.best_rush_planned ~now planned with
        | Some (i, gain) when i > 0 ->
          t.rushes <- t.rushes + 1;
          Log.debug (fun m ->
              m "getNextQuery rushes q%d ahead of %d queries (nets $%.3f)"
                planned.(i).Query.id i gain);
          perm.(i)
        | Some _ | None -> perm.(0)
      end
    in
    let q = arr.(chosen) in
    t.buffer <- List.filteri (fun k _ -> k <> chosen) buffer;
    Log.debug (fun m ->
        m "getNextQuery -> q%d (buffer %d left)" q.Query.id (List.length t.buffer));
    Some q
