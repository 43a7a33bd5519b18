(* The augmented balanced search tree of paper Sec 5 (Figs 11-14).

   Leaves are g/0 units sorted by key (slack in S+, tardiness in S-).
   Every internal node stores:
     - [split]: a value separating left-subtree keys from right-subtree
       keys (the paper's node slack value d_tau);
     - [ids]: the buffer positions of its descendant units, sorted,
       with duplicates (several units of the same query) merged;
     - [cum]: cum.(j) = total gain of descendants with id <= ids.(j);
     - [lp]/[rp]: for each entry, the index in the left/right child's
       id list of the largest id <= ids.(j), or -1 (the fractional-
       cascading pointers that replace per-level binary searches).

   One binary search at the root then O(1) work per level answers the
   prefix question "total gain of units with id <= n and key </<= tau"
   in O(log M) for M units. *)

type node =
  | Leaf of { key : float; uid : int; gain : float }
  | Node of {
      split : float;
      left : node;
      right : node;
      ids : int array;
      cum : float array;
      lp : int array;
      rp : int array;
    }

type t = { root : node option; unit_count : int }

(* Which comparison "key vs tau" selects a unit: the flat tree's type,
   so both trees take the same modes. *)
type mode = Flat_sla_tree.mode = Lt | Le

let node_ids = function
  | Leaf { uid; _ } -> [| uid |]
  | Node { ids; _ } -> ids

let node_gains = function
  | Leaf { gain; _ } -> [| gain |]
  | Node { cum; _ } ->
    Array.mapi (fun j c -> if j = 0 then c else c -. cum.(j - 1)) cum

(* Cumulative gain of entries 0..j of a node's id list. *)
let cum_at node j =
  match node with
  | Leaf { gain; _ } ->
    assert (j = 0);
    gain
  | Node { cum; _ } -> cum.(j)

(* Merge the id lists of two children into the parent's annotated list
   (paper Fig 13). Gains of equal ids are summed; [lp]/[rp] record, for
   each merged entry, the last index of the respective child whose id
   is <= the entry's id. *)
let merge_ids (lids, lgains) (rids, rgains) =
  let nl = Array.length lids and nr = Array.length rids in
  let n_est = nl + nr in
  let ids = Array.make n_est 0 in
  let gains = Array.make n_est 0.0 in
  let lp = Array.make n_est (-1) in
  let rp = Array.make n_est (-1) in
  let li = ref 0 and ri = ref 0 and k = ref 0 in
  while !li < nl || !ri < nr do
    let take_left = !ri >= nr || (!li < nl && lids.(!li) <= rids.(!ri)) in
    let take_right = !li >= nl || (!ri < nr && rids.(!ri) <= lids.(!li)) in
    let id, gain =
      if take_left && take_right then begin
        let id = lids.(!li) in
        let g = lgains.(!li) +. rgains.(!ri) in
        incr li;
        incr ri;
        (id, g)
      end
      else if take_left then begin
        let id = lids.(!li) in
        let g = lgains.(!li) in
        incr li;
        (id, g)
      end
      else begin
        let id = rids.(!ri) in
        let g = rgains.(!ri) in
        incr ri;
        (id, g)
      end
    in
    ids.(!k) <- id;
    gains.(!k) <- gain;
    lp.(!k) <- !li - 1;
    rp.(!k) <- !ri - 1;
    incr k
  done;
  let n = !k in
  ( Array.sub ids 0 n,
    Array.sub gains 0 n,
    Array.sub lp 0 n,
    Array.sub rp 0 n )

let build units =
  let m = Array.length units in
  if m = 0 then { root = None; unit_count = 0 }
  else begin
    let sorted = Array.copy units in
    (* Sort by key; tie-break by uid for determinism. *)
    Array.sort
      (fun a b ->
        let c = Float.compare a.Slack_units.slack b.Slack_units.slack in
        if c <> 0 then c else Int.compare a.Slack_units.uid b.Slack_units.uid)
      sorted;
    (* Recursive halving of the sorted slice: equivalent to the paper's
       bottom-up pairwise merge, O(M log M) total. Returns the node and
       its (ids, gains) lists so the parent can merge without
       re-deriving raw gains from cumulative ones. *)
    let rec go lo hi =
      if hi - lo = 1 then begin
        let u = sorted.(lo) in
        ( Leaf { key = u.Slack_units.slack; uid = u.uid; gain = u.gain },
          [| u.uid |],
          [| u.gain |] )
      end
      else begin
        let mid = (lo + hi) / 2 in
        let left, lids, lgains = go lo mid in
        let right, rids, rgains = go mid hi in
        let split =
          (sorted.(mid - 1).Slack_units.slack +. sorted.(mid).Slack_units.slack)
          /. 2.0
        in
        let ids, gains, lp, rp = merge_ids (lids, lgains) (rids, rgains) in
        let cum = Array.make (Array.length gains) 0.0 in
        let acc = ref 0.0 in
        Array.iteri
          (fun j g ->
            acc := !acc +. g;
            cum.(j) <- !acc)
          gains;
        (Node { split; left; right; ids; cum; lp; rp }, ids, gains)
      end
    in
    let root, _, _ = go 0 m in
    { root = Some root; unit_count = m }
  end

let unit_count t = t.unit_count

(* Total gain of units with id <= n and key < tau (mode Lt) or
   key <= tau (mode Le). O(log M). *)
let prefix_loss t mode ~n ~tau =
  match t.root with
  | None -> 0.0
  | Some root ->
    let rec go node i acc =
      if i < 0 then acc
      else begin
        match node with
        | Leaf { key; gain; _ } ->
          let hit = match mode with Lt -> key < tau | Le -> key <= tau in
          if hit then acc +. gain else acc
        | Node { split; left; right; lp; rp; _ } ->
          let descend_left_only =
            match mode with Lt -> tau <= split | Le -> tau < split
          in
          if descend_left_only then go left lp.(i) acc
          else begin
            let from_left = if lp.(i) < 0 then 0.0 else cum_at left lp.(i) in
            go right rp.(i) (acc +. from_left)
          end
      end
    in
    let i = Arrayx.find_last_leq Int.compare (node_ids root) n in
    go root i 0.0

(* The paper's first, pointer-free implementation (Sec 3.3.3): walk
   the same tree but re-run a binary search over the descendant list
   of every left child that gets counted, O(log^2 M) per question.
   Kept as the ablation baseline for the fractional-cascading claim
   (Sec 5.1) and as an independent oracle in the tests. *)
let prefix_loss_binary_search t mode ~n ~tau =
  match t.root with
  | None -> 0.0
  | Some root ->
    let count_left left =
      let ids = node_ids left in
      let j = Arrayx.find_last_leq Int.compare ids n in
      if j < 0 then 0.0 else cum_at left j
    in
    let rec go node acc =
      match node with
      | Leaf { key; gain; uid } ->
        let hit = match mode with Lt -> key < tau | Le -> key <= tau in
        if hit && uid <= n then acc +. gain else acc
      | Node { split; left; right; _ } ->
        let descend_left_only =
          match mode with Lt -> tau <= split | Le -> tau < split
        in
        if descend_left_only then go left acc
        else go right (acc +. count_left left)
    in
    go root 0.0

(* Total gain of units with id <= n, regardless of key. O(log M) for
   the root search only. *)
let prefix_total t ~n =
  match t.root with
  | None -> 0.0
  | Some root ->
    let i = Arrayx.find_last_leq Int.compare (node_ids root) n in
    if i < 0 then 0.0 else cum_at root i

let total t =
  match t.root with
  | None -> 0.0
  | Some root ->
    let ids = node_ids root in
    cum_at root (Array.length ids - 1)

(* Structural invariants, used by the test suite:
   - a node's split separates its subtrees' keys;
   - id lists are strictly increasing;
   - cumulative gains are consistent with children;
   - pointers index the largest child id <= the entry id. *)
let check_invariants t =
  (* Accumulator-based collection: [keys left @ keys right] is
     quadratic on the left-spine-heavy trees the builder produces. *)
  let keys node =
    let rec go acc = function
      | Leaf { key; _ } -> key :: acc
      | Node { left; right; _ } -> go (go acc right) left
    in
    go [] node
  in
  let rec go = function
    | Leaf _ -> ()
    | Node { split; left; right; ids; cum; lp; rp } as node ->
      let lkeys = keys left and rkeys = keys right in
      List.iter (fun k -> assert (k <= split)) lkeys;
      List.iter (fun k -> assert (k >= split)) rkeys;
      assert (Arrayx.is_strictly_sorted Int.compare ids);
      let lids = node_ids left and rids = node_ids right in
      let lgains = node_gains left and rgains = node_gains right in
      let gain_of ids gains id =
        let j = Arrayx.find_last_leq Int.compare ids id in
        if j >= 0 && ids.(j) = id then gains.(j) else 0.0
      in
      let acc = ref 0.0 in
      Array.iteri
        (fun j id ->
          acc := !acc +. gain_of lids lgains id +. gain_of rids rgains id;
          assert (Float.abs (cum.(j) -. !acc) <= 1e-9 *. (1.0 +. Float.abs !acc));
          assert (lp.(j) = Arrayx.find_last_leq Int.compare lids id);
          assert (rp.(j) = Arrayx.find_last_leq Int.compare rids id))
        ids;
      ignore node;
      go left;
      go right
  in
  Option.iter go t.root

let rec depth_of = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + max (depth_of left) (depth_of right)

let depth t = match t.root with None -> 0 | Some n -> depth_of n
