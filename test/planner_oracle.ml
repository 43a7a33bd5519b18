(* The planners as they were before each order became one unboxed key
   array: every plan a closure comparator over per-query keys, sorted
   by [Array.stable_sort], each planner's key pair a boxed tuple, and
   the insertion rank found by appending the newcomer and re-planning.
   Kept only here, as the reference [Planner]'s plans, heads and ranks
   must match. *)

type t = {
  name : string;
  permutation : now:float -> Query.t array -> int array;
  keys : now:float -> Query.t -> float * float;
}

(* Stable sort of indices by a key function; ties keep arrival order.
   The comparator breaks key ties by index, so it is a strict total
   order and any comparison sort gives this permutation. *)
let by_key key =
 fun ~now buffer ->
  let n = Array.length buffer in
  let idx = Array.init n (fun i -> i) in
  let keys = Array.map (key ~now) buffer in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare keys.(a) keys.(b) in
      if c <> 0 then c else Int.compare a b)
    idx;
  idx

(* Stable sort on a lexicographic pair of keys; the same strict total
   order as [by_key]. *)
let by_key_pair key =
 fun ~now buffer ->
  let n = Array.length buffer in
  let idx = Array.init n (fun i -> i) in
  let keys = Array.map (key ~now) buffer in
  Array.stable_sort
    (fun a b ->
      let ka1, ka2 = keys.(a) and kb1, kb2 = keys.(b) in
      let c = Float.compare ka1 kb1 in
      if c <> 0 then c
      else begin
        let c = Float.compare ka2 kb2 in
        if c <> 0 then c else Int.compare a b
      end)
    idx;
  idx

let fcfs =
  {
    name = "FCFS";
    permutation = (fun ~now:_ b -> Array.init (Array.length b) Fun.id);
    keys = (fun ~now:_ _ -> (0.0, 0.0));
  }

let sjf =
  {
    name = "SJF";
    permutation = by_key (fun ~now:_ q -> q.Query.est_size);
    keys = (fun ~now:_ q -> (q.Query.est_size, 0.0));
  }

let edf =
  {
    name = "EDF";
    permutation = by_key (fun ~now:_ q -> Query.first_deadline q);
    keys = (fun ~now:_ q -> (Query.first_deadline q, 0.0));
  }

let value_edf_key ~now:_ q =
  (-.Sla.max_gain q.Query.sla, Query.first_deadline q)

let value_edf =
  { name = "Value-EDF"; permutation = by_key_pair value_edf_key; keys = value_edf_key }

let cbs ~rate =
  {
    name = "CBS";
    permutation = by_key (fun ~now q -> -.Planner.cbs_priority ~rate ~now q);
    keys = (fun ~now q -> (-.Planner.cbs_priority ~rate ~now q, 0.0));
  }

let plan t ~now buffer = t.permutation ~now buffer

(* The plan's first element without the plan: the least key pair under
   the sort's comparator, the lower index winning ties. Scanning up
   from index 0 and replacing only on a strictly smaller pair keeps the
   earliest of equal keys. *)
let head t ~now buffer =
  let n = Array.length buffer in
  if n = 0 then invalid_arg "Planner_oracle.head: empty buffer";
  let b1, b2 = t.keys ~now buffer.(0) in
  let best = ref 0 and b1 = ref b1 and b2 = ref b2 in
  for i = 1 to n - 1 do
    let k1, k2 = t.keys ~now buffer.(i) in
    let c = Float.compare k1 !b1 in
    if c < 0 || (c = 0 && Float.compare k2 !b2 < 0) then begin
      best := i;
      b1 := k1;
      b2 := k2
    end
  done;
  !best

let planned_queries t ~now buffer =
  Array.map (fun i -> buffer.(i)) (plan t ~now buffer)

(* The position the newcomer takes when appended and re-planned: it
   carries the latest index, so it loses every tie. *)
let insertion_rank t ~now buffer query =
  let n = Array.length buffer in
  let extended = Array.append buffer [| query |] in
  let perm = t.permutation ~now extended in
  let rec find k = if perm.(k) = n then k else find (k + 1) in
  find 0
