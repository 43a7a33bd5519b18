(* Flat, arena-backed SLA-tree: the same augmented cascaded search tree
   as [Cascade_tree] (paper Sec 5), stored as structure-of-arrays with
   an implicit preorder layout instead of boxed nodes.

   Layout. A cascade over [m] sorted units has exactly [2m - 1] nodes.
   Nodes are numbered in preorder: the node covering the sorted slice
   [lo, hi) sits at index [k]; if [hi - lo > 1] its left child (over
   [lo, mid), mid = (lo + hi) / 2) is at [k + 1] and its right child at
   [k + 2 * (mid - lo)]. We record the right-child index explicitly in
   [n_rchild] ([-1] marks a leaf) so probes never re-derive ranges.
   Per-node data lives in parallel arrays indexed by node:
     n_split   internal: the separating key (the paper's d_tau);
               leaf: the unit's key
     n_off/n_len  the node's merged id list as a slice of the list pool
   and the list pool itself is five parallel arrays indexed by
   [off + j]:
     l_ids  descendant buffer positions, sorted, duplicates merged
     l_raw  the merged gain of entry j (kept so a parent's merge adds
            the SAME raw floats as the boxed build — deriving them from
            cumulative differences would change the bits)
     l_cum  running sum of l_raw over the node's slice
     l_lp/l_rp  fractional-cascading pointers into the child slices

   Arena. All arrays come from a growable arena; [build] resets its
   cursors and fills both cascades, so repeated rebuilds through the
   same arena allocate nothing once the arrays have grown to the
   working-set size. Building into an arena invalidates every tree
   previously built from it — callers that cache trees (the dispatcher
   probe cache) must pair one arena with one live tree.

   Equivalence. The sort comparator (key, then uid) is a strict total
   order over the unit multiset — units of one query have strictly
   increasing slacks because SLA bounds strictly increase — so any
   comparison sort produces the permutation [Cascade_tree.build] gets
   from [Array.sort]. Construction fills children before parents
   (post-order over the same recursion tree), merges with the same
   tie-handling, and accumulates [l_cum] in the same left-to-right
   order, so every float in the structure is bit-identical to the boxed
   tree's, and probes replay the boxed probe's additions exactly. *)

type arena = {
  (* Unit scratch: the expanded (key, uid, gain) triples, partitioned
     into the S+ region then the S- region, each sorted in place. *)
  mutable u_key : float array;
  mutable u_uid : int array;
  mutable u_gain : float array;
  (* Merge scratch for the unit sort, indexed from 0. *)
  mutable s_key : float array;
  mutable s_uid : int array;
  mutable s_gain : float array;
  (* Node pool, shared by both cascades of one tree. *)
  mutable n_split : float array;
  mutable n_rchild : int array;
  mutable n_off : int array;
  mutable n_len : int array;
  (* List pool. *)
  mutable l_ids : int array;
  mutable l_cum : float array;
  mutable l_raw : float array;
  mutable l_lp : int array;
  mutable l_rp : int array;
  mutable node_top : int;
  mutable list_top : int;
}

let create_arena () =
  {
    u_key = [||];
    u_uid = [||];
    u_gain = [||];
    s_key = [||];
    s_uid = [||];
    s_gain = [||];
    n_split = [||];
    n_rchild = [||];
    n_off = [||];
    n_len = [||];
    l_ids = [||];
    l_cum = [||];
    l_raw = [||];
    l_lp = [||];
    l_rp = [||];
    node_top = 0;
    list_top = 0;
  }

(* A built cascade. The array fields capture the arena's arrays at
   build time: if a later build grows the arena, the grown copies
   replace the arena's fields but these references keep the old
   storage (and thus this cascade's data) alive and readable. *)
type cascade = {
  root : int;  (* node index, -1 when empty *)
  m : int;
  c_split : float array;
  c_rchild : int array;
  c_off : int array;
  c_len : int array;
  c_ids : int array;
  c_cum : float array;
  c_raw : float array;
  c_lp : int array;
  c_rp : int array;
}

type t = { slack : cascade; tardy : cascade }

let slack t = t.slack
let tardy t = t.tardy
let unit_count c = c.m

(* ------------------------------------------------------------------ *)
(* Growth. Doubling with a floor of the requested size; blit preserves
   live prefixes so growing mid-build never disturbs finished nodes. *)

let grow_float a used need =
  let cap = max need (max 8 (2 * Array.length a)) in
  let b = Array.make cap 0.0 in
  Array.blit a 0 b 0 used;
  b

let grow_int a used need =
  let cap = max need (max 8 (2 * Array.length a)) in
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 used;
  b

let ensure_units a n =
  if Array.length a.u_key < n then begin
    a.u_key <- grow_float a.u_key 0 n;
    a.u_uid <- grow_int a.u_uid 0 n;
    a.u_gain <- grow_float a.u_gain 0 n
  end

let ensure_nodes a extra =
  let need = a.node_top + extra in
  if Array.length a.n_split < need then begin
    a.n_split <- grow_float a.n_split a.node_top need;
    a.n_rchild <- grow_int a.n_rchild a.node_top need;
    a.n_off <- grow_int a.n_off a.node_top need;
    a.n_len <- grow_int a.n_len a.node_top need
  end

let ensure_list a extra =
  let need = a.list_top + extra in
  if Array.length a.l_ids < need then begin
    a.l_ids <- grow_int a.l_ids a.list_top need;
    a.l_cum <- grow_float a.l_cum a.list_top need;
    a.l_raw <- grow_float a.l_raw a.list_top need;
    a.l_lp <- grow_int a.l_lp a.list_top need;
    a.l_rp <- grow_int a.l_rp a.list_top need
  end

(* ------------------------------------------------------------------ *)
(* Sort of the unit region [base, base + m) by (key, uid): runs of
   [run_length] units are insertion-sorted in place, then merged
   bottom-up, back and forth between the region and the arena's
   scratch. The comparator is a strict total order, so the result
   equals what any other comparison sort — in particular the boxed
   build's [Array.sort] — produces. *)

let run_length = 16

let[@inline] less (k1 : float) (u1 : int) k2 u2 =
  let c = Float.compare k1 k2 in
  if c <> 0 then c < 0 else u1 < u2

let insertion_sort a lo hi =
  let key = a.u_key and uid = a.u_uid and gain = a.u_gain in
  for i = lo + 1 to hi - 1 do
    let k = key.(i) and u = uid.(i) and g = gain.(i) in
    let j = ref (i - 1) in
    while !j >= lo && less k u key.(!j) uid.(!j) do
      key.(!j + 1) <- key.(!j);
      uid.(!j + 1) <- uid.(!j);
      gain.(!j + 1) <- gain.(!j);
      decr j
    done;
    key.(!j + 1) <- k;
    uid.(!j + 1) <- u;
    gain.(!j + 1) <- g
  done

(* A unit region: key, uid and gain arrays, and the region's offset. *)
type region = float array * int array * float array * int

(* One bottom-up pass over [m] units: merge each pair of adjacent
   sorted runs of [width] from the source region into the destination
   region. *)
let merge_pass ~m ~width ((sk, su, sg, so) : region)
    ((dk, du, dg, d_o) : region) =
  let lo = ref 0 in
  while !lo < m do
    let mid = min m (!lo + width) and hi = min m (!lo + (2 * width)) in
    let i = ref !lo and j = ref mid in
    for k = !lo to hi - 1 do
      let from =
        if
          !j >= hi
          || (!i < mid
             && not (less sk.(so + !j) su.(so + !j) sk.(so + !i) su.(so + !i)))
        then begin
          incr i;
          !i - 1
        end
        else begin
          incr j;
          !j - 1
        end
      in
      dk.(d_o + k) <- sk.(so + from);
      du.(d_o + k) <- su.(so + from);
      dg.(d_o + k) <- sg.(so + from)
    done;
    lo := hi
  done

let sort_units a base m =
  let lo = ref 0 in
  while !lo < m do
    insertion_sort a (base + !lo) (base + min m (!lo + run_length));
    lo := !lo + run_length
  done;
  if m > run_length then begin
    (* Only builds with more than one run touch the scratch, so small
       builds — the one-shot arenas included — never grow it. *)
    if Array.length a.s_key < m then begin
      a.s_key <- grow_float a.s_key 0 m;
      a.s_uid <- grow_int a.s_uid 0 m;
      a.s_gain <- grow_float a.s_gain 0 m
    end;
    let units = (a.u_key, a.u_uid, a.u_gain, base)
    and scratch = (a.s_key, a.s_uid, a.s_gain, 0) in
    let width = ref run_length and in_units = ref true in
    while !width < m do
      if !in_units then merge_pass ~m ~width:!width units scratch
      else merge_pass ~m ~width:!width scratch units;
      in_units := not !in_units;
      width := 2 * !width
    done;
    if not !in_units then begin
      Array.blit a.s_key 0 a.u_key base m;
      Array.blit a.s_uid 0 a.u_uid base m;
      Array.blit a.s_gain 0 a.u_gain base m
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction. *)

(* Merge the id lists of children [left]/[right] into a new list at
   [a.list_top], mirroring [Cascade_tree.merge_ids] plus the cumulative
   pass, and return its (offset, length). Gains of equal ids are summed
   left + right, and [l_cum] accumulates in merge order — the same
   float operations, in the same order, as the boxed build. *)
let merge_lists a left right =
  let loff = a.n_off.(left) and llen = a.n_len.(left) in
  let roff = a.n_off.(right) and rlen = a.n_len.(right) in
  ensure_list a (llen + rlen);
  let ids = a.l_ids and raw = a.l_raw and cum = a.l_cum in
  let lp = a.l_lp and rp = a.l_rp in
  let off = a.list_top in
  let li = ref 0 and ri = ref 0 and k = ref off in
  let acc = ref 0.0 in
  while !li < llen || !ri < rlen do
    let take_left =
      !ri >= rlen || (!li < llen && ids.(loff + !li) <= ids.(roff + !ri))
    in
    let take_right =
      !li >= llen || (!ri < rlen && ids.(roff + !ri) <= ids.(loff + !li))
    in
    let id, gain =
      if take_left && take_right then begin
        let id = ids.(loff + !li) in
        let g = raw.(loff + !li) +. raw.(roff + !ri) in
        incr li;
        incr ri;
        (id, g)
      end
      else if take_left then begin
        let id = ids.(loff + !li) in
        let g = raw.(loff + !li) in
        incr li;
        (id, g)
      end
      else begin
        let id = ids.(roff + !ri) in
        let g = raw.(roff + !ri) in
        incr ri;
        (id, g)
      end
    in
    ids.(!k) <- id;
    raw.(!k) <- gain;
    acc := !acc +. gain;
    cum.(!k) <- !acc;
    lp.(!k) <- !li - 1;
    rp.(!k) <- !ri - 1;
    incr k
  done;
  a.list_top <- !k;
  (off, !k - off)

(* Fill the cascade over sorted units [base + lo, base + hi) into the
   node pool. Nodes are allocated in preorder (self, then left subtree,
   then right subtree) but their lists are written post-order, so
   children's lists exist when the parent merges them. Returns the
   node's index. *)
let rec fill_node a base lo hi =
  let k = a.node_top in
  a.node_top <- k + 1;
  if hi - lo = 1 then begin
    a.n_split.(k) <- a.u_key.(base + lo);
    a.n_rchild.(k) <- -1;
    ensure_list a 1;
    let off = a.list_top in
    a.list_top <- off + 1;
    a.l_ids.(off) <- a.u_uid.(base + lo);
    a.l_raw.(off) <- a.u_gain.(base + lo);
    a.l_cum.(off) <- a.u_gain.(base + lo);
    a.l_lp.(off) <- -1;
    a.l_rp.(off) <- -1;
    a.n_off.(k) <- off;
    a.n_len.(k) <- 1;
    k
  end
  else begin
    let mid = (lo + hi) / 2 in
    let left = fill_node a base lo mid in
    let right = fill_node a base mid hi in
    a.n_split.(k) <-
      (a.u_key.(base + (mid - 1)) +. a.u_key.(base + mid)) /. 2.0;
    a.n_rchild.(k) <- right;
    let off, len = merge_lists a left right in
    a.n_off.(k) <- off;
    a.n_len.(k) <- len;
    k
  end

let build_cascade a base m =
  if m = 0 then
    {
      root = -1;
      m = 0;
      c_split = [||];
      c_rchild = [||];
      c_off = [||];
      c_len = [||];
      c_ids = [||];
      c_cum = [||];
      c_raw = [||];
      c_lp = [||];
      c_rp = [||];
    }
  else begin
    sort_units a base m;
    ensure_nodes a ((2 * m) - 1);
    let root = fill_node a base 0 m in
    {
      root;
      m;
      c_split = a.n_split;
      c_rchild = a.n_rchild;
      c_off = a.n_off;
      c_len = a.n_len;
      c_ids = a.l_ids;
      c_cum = a.l_cum;
      c_raw = a.l_raw;
      c_lp = a.l_lp;
      c_rp = a.l_rp;
    }
  end

let unit_swap a i j =
  let k = a.u_key.(i) in
  a.u_key.(i) <- a.u_key.(j);
  a.u_key.(j) <- k;
  let u = a.u_uid.(i) in
  a.u_uid.(i) <- a.u_uid.(j);
  a.u_uid.(j) <- u;
  let g = a.u_gain.(i) in
  a.u_gain.(i) <- a.u_gain.(j);
  a.u_gain.(j) <- g

(* Expand the scheduled entries straight into the unit scratch (one
   pre-sized pass — no [Slack_units] arrays, no intermediate lists),
   then partition in place: S+ units (slack >= 0) first, S- units
   after, with the S- keys sign-flipped to tardiness. The partition is
   unstable, which is fine: each region is about to be sorted by a
   strict total order. Returns (total, n_pos). *)
let expand_units a entries =
  let total = ref 0 in
  Array.iter
    (fun e -> total := !total + Sla.num_components e.Schedule.query.Query.sla)
    entries;
  let total = !total in
  ensure_units a total;
  let k = ref 0 in
  Array.iteri
    (fun pos e ->
      let comps = Sla.components e.Schedule.query.Query.sla in
      for c = 0 to Array.length comps - 1 do
        a.u_key.(!k) <- Schedule.slack e ~bound:comps.(c).Sla.comp_bound;
        a.u_uid.(!k) <- pos;
        a.u_gain.(!k) <- comps.(c).Sla.comp_gain;
        incr k
      done)
    entries;
  let p = ref 0 in
  for i = 0 to total - 1 do
    if a.u_key.(i) >= 0.0 then begin
      if i <> !p then unit_swap a !p i;
      incr p
    end
  done;
  for i = !p to total - 1 do
    a.u_key.(i) <- -.a.u_key.(i)
  done;
  (total, !p)

let build a entries =
  a.node_top <- 0;
  a.list_top <- 0;
  let total, n_pos = expand_units a entries in
  let slack = build_cascade a 0 n_pos in
  let tardy = build_cascade a n_pos (total - n_pos) in
  { slack; tardy }

(* One cascade straight from raw units — the same input contract as
   [Cascade_tree.build], so fuzz suites can feed both implementations
   identical adversarial unit arrays. Resets the arena like [build]. *)
let of_units a units =
  a.node_top <- 0;
  a.list_top <- 0;
  let m = Array.length units in
  ensure_units a m;
  for i = 0 to m - 1 do
    let u = units.(i) in
    a.u_key.(i) <- u.Slack_units.slack;
    a.u_uid.(i) <- u.Slack_units.uid;
    a.u_gain.(i) <- u.Slack_units.gain
  done;
  build_cascade a 0 m

(* ------------------------------------------------------------------ *)
(* Probes — structurally identical to [Cascade_tree.prefix_loss] and
   friends, with node/list indirection replaced by array indexing. *)

let prefix_loss c (mode : Cascade_tree.mode) ~n ~tau =
  if c.root < 0 then 0.0
  else begin
    let rec go k i acc =
      if i < 0 then acc
      else begin
        let off = c.c_off.(k) in
        let right = c.c_rchild.(k) in
        if right < 0 then begin
          let key = c.c_split.(k) in
          let hit =
            match mode with Lt -> key < tau | Le -> key <= tau
          in
          if hit then acc +. c.c_raw.(off) else acc
        end
        else begin
          let split = c.c_split.(k) in
          let descend_left_only =
            match mode with Lt -> tau <= split | Le -> tau < split
          in
          if descend_left_only then go (k + 1) c.c_lp.(off + i) acc
          else begin
            let lpv = c.c_lp.(off + i) in
            let from_left =
              if lpv < 0 then 0.0 else c.c_cum.(c.c_off.(k + 1) + lpv)
            in
            go right c.c_rp.(off + i) (acc +. from_left)
          end
        end
      end
    in
    let i =
      Arrayx.find_last_leq_int_range c.c_ids ~off:(c.c_off.(c.root))
        ~len:(c.c_len.(c.root)) n
    in
    go c.root i 0.0
  end

(* The paper's pointer-free O(log^2 M) walk over the flat layout; the
   ablation baseline and an extra oracle for the fuzz tests. *)
let prefix_loss_binary_search c (mode : Cascade_tree.mode) ~n ~tau =
  if c.root < 0 then 0.0
  else begin
    let count_left left =
      let j =
        Arrayx.find_last_leq_int_range c.c_ids ~off:(c.c_off.(left))
          ~len:(c.c_len.(left)) n
      in
      if j < 0 then 0.0 else c.c_cum.(c.c_off.(left) + j)
    in
    let rec go k acc =
      let right = c.c_rchild.(k) in
      if right < 0 then begin
        let key = c.c_split.(k) in
        let hit = match mode with Lt -> key < tau | Le -> key <= tau in
        if hit && c.c_ids.(c.c_off.(k)) <= n then acc +. c.c_raw.(c.c_off.(k))
        else acc
      end
      else begin
        let split = c.c_split.(k) in
        let descend_left_only =
          match mode with Lt -> tau <= split | Le -> tau < split
        in
        if descend_left_only then go (k + 1) acc
        else go right (acc +. count_left (k + 1))
      end
    in
    go c.root 0.0
  end

let prefix_total c ~n =
  if c.root < 0 then 0.0
  else begin
    let off = c.c_off.(c.root) in
    let i =
      Arrayx.find_last_leq_int_range c.c_ids ~off ~len:(c.c_len.(c.root)) n
    in
    if i < 0 then 0.0 else c.c_cum.(off + i)
  end

let total c =
  if c.root < 0 then 0.0
  else c.c_cum.(c.c_off.(c.root) + c.c_len.(c.root) - 1)

let depth c =
  if c.root < 0 then 0
  else begin
    let rec go k =
      if c.c_rchild.(k) < 0 then 1
      else 1 + max (go (k + 1)) (go c.c_rchild.(k))
    in
    go c.root
  end
