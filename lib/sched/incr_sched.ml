(* Incremental FCFS+SLA-tree scheduling state.

   Invariant (per server, between events): the live tree holds the
   running query (head) followed by the buffered queries in FCFS
   order, on the true timeline. The Sim event stream maintains it:

     Started q    idle gap ended: reset_origin to now, append q
                  (after a pick the started query is already the
                  head — nothing to do)
     Enqueued q   append at the schedule tail
     Finished     pop_head ~actual (drift folds into the tree's
                  delay offset); remember the deciding server — the
                  simulator calls pick_next for that server next
     Dropped q    the tree cannot remove interior queries: mark the
                  server dirty, reconstruct lazily at the next pick

   At a pick, the tree therefore holds the schedule of
   Sla_tree.build ~now buffer of the rebuild-per-decision path, and
   What_if.best_rush_incr makes the identical decision. A rush
   (pick <> 0) reorders the buffer out of FCFS, so the tree is reset in
   post-rush order. Every reconstruction is such a reset, which only
   refills the tree's overflow: the tree folds it into a flat build
   once its probes have scanned as much as that build costs.

   Until the hook has delivered an event, nothing maintains the trees
   (the pick is driven without its hook), so every pick resets. *)

type sstate = {
  tree : Incr_sla_tree.t;
  mutable dirty : bool;
}

type t = {
  mutable servers : sstate array;
  mutable deciding : int;  (* sid whose completion is being handled *)
  mutable hooked : bool;  (* the hook has delivered an event *)
  mutable fast : int;
  mutable rebuilt : int;
  obs : Obs.t;
}

let create ?(obs = Obs.noop) () =
  { servers = [||]; deciding = 0; hooked = false; fast = 0; rebuilt = 0; obs }

let fast_decisions t = t.fast
let rebuilt_decisions t = t.rebuilt

let state t sid ~now =
  let n = Array.length t.servers in
  if sid >= n then begin
    let grown =
      Array.init (sid + 1) (fun i ->
          if i < n then t.servers.(i)
          else
            { tree = Incr_sla_tree.create ~obs:t.obs ~now [||]; dirty = false })
    in
    t.servers <- grown
  end;
  t.servers.(sid)

let head_is st q =
  match Incr_sla_tree.peek st.tree with
  | Some h -> h.Query.id = q.Query.id
  | None -> false

let hook t ~sid ~now ev =
  t.hooked <- true;
  let st = state t sid ~now in
  match ev with
  | Sim.Started q ->
    if st.dirty then begin
      Incr_sla_tree.reset st.tree ~now [| q |];
      st.dirty <- false
    end
    else if Incr_sla_tree.length st.tree = 0 then begin
      Incr_sla_tree.reset_origin st.tree ~now;
      Incr_sla_tree.append st.tree q
    end
    else if not (head_is st q) then
      (* Defensive: events were not delivered in full — rebuild at the
         next pick. *)
      st.dirty <- true
  | Sim.Enqueued q -> if not st.dirty then Incr_sla_tree.append st.tree q
  | Sim.Finished { query; actual } ->
    t.deciding <- sid;
    if (not st.dirty) && head_is st query then
      Incr_sla_tree.pop_head ~actual st.tree
    else st.dirty <- true
  | Sim.Dropped _ -> st.dirty <- true
  (* Pool membership changes. A fresh server's state was just created
     by [state] above; a draining server may have had its whole buffer
     redistributed away without per-query events, so its tree can only
     be trusted again after a rebuild. *)
  | Sim.Scaled_up -> ()
  | Sim.Draining | Sim.Retired -> st.dirty <- true
  (* Fault transitions. A crash voids the buffer wholesale (orphans
     leave without per-query events), so the tree is garbage until
     rebuilt. A speed change or repair invalidates nothing the tree
     tracks — it orders queries by profit over est sizes, which are
     raw (not speed-scaled) — but a [Restored] server coming back from
     [Down] gets a rebuild anyway via the [Crashed] mark. *)
  | Sim.Crashed -> st.dirty <- true
  | Sim.Degraded _ | Sim.Restored -> ()

(* Reset the tree in the order [buffer.(i); buffer \ i]. *)
let rush st ~now buffer i =
  let n = Array.length buffer in
  let arr = Array.make n buffer.(i) in
  let k = ref 1 in
  Array.iteri
    (fun j q ->
      if j <> i then begin
        arr.(!k) <- q;
        incr k
      end)
    buffer;
  Incr_sla_tree.reset st.tree ~now arr

let pick t ~now buffer =
  let st = state t t.deciding ~now in
  if
    (not t.hooked) || st.dirty
    || Incr_sla_tree.length st.tree <> Array.length buffer
  then begin
    Incr_sla_tree.reset st.tree ~now buffer;
    st.dirty <- false;
    t.rebuilt <- t.rebuilt + 1
  end
  else t.fast <- t.fast + 1;
  match What_if.best_rush_incr st.tree with
  | None -> invalid_arg "Incr_sched.pick: empty buffer"
  | Some (i, _gain) ->
    if i <> 0 then rush st ~now buffer i;
    i
