(* Planners: the "existing execution order" the SLA-tree framework
   requires (paper Sec 8.1). A planner maps the arrival-ordered buffer
   to a permutation giving the planned execution order.

   Each order is one float key per buffered query, written into an
   unboxed float array once per call, and Value-EDF adds a tie key.
   Every plan sorts the buffer's indices by (key, tie key, index) under
   [Float.compare]: a strict total order, so the plan is the stable
   sort of the keys. Stability also guarantees the "very minor
   condition" of Sec 6.2 — inserting a query never reorders the
   others — which the SLA-tree dispatcher relies on. *)

type order =
  | Arrival  (** FCFS: no key, the buffer's own order *)
  | Size
  | Deadline
  | Value_deadline  (** the one order with a tie key *)
  | Cost of float  (** CBS at this rate *)

type t = { name : string; order : order }

let name t = t.name

(* Cost-based scheduling (Peha-Tobagi [15], as used in Sec 7.2): order
   by descending expected loss per unit of work, where the loss
   expectation assumes a memoryless additional wait X ~ Exp(rate)
   beyond the query's own execution time. Inlined with the integral, so
   a key loop calls [exp] and boxes nothing (the release build only). *)
let[@inline] cbs_priority ~rate ~now q =
  let elapsed = now -. q.Query.arrival +. q.Query.est_size in
  let work = Float.max q.Query.est_size 1e-9 in
  Sla.expected_loss_exp q.Query.sla ~elapsed ~rate /. work

(* The one definition of each order: a query runs before every query
   with a greater key. Value-based scheduling in the style of Haritsa
   et al. [10] (cited in Sec 2.3) runs the highest value (best-case SLA
   gain) first, the earliest deadline breaking value ties. *)
let[@inline] key order ~now q =
  match order with
  | Arrival -> 0.0
  | Size -> q.Query.est_size
  | Deadline -> Query.first_deadline q
  | Value_deadline -> -.Sla.max_gain q.Query.sla
  | Cost rate -> -.cbs_priority ~rate ~now q

(* A one-key order ties on its key again, which breaks no tie. *)
let[@inline] tie order k q =
  match order with Value_deadline -> Query.first_deadline q | _ -> k

(* The buffer's keys and tie keys, once per call; a one-key order's tie
   array is its key array. *)
let keyed t ~now buffer =
  let n = Array.length buffer in
  let k = Array.create_float n in
  let d = match t.order with Value_deadline -> Array.create_float n | _ -> k in
  for i = 0 to n - 1 do
    let q = buffer.(i) in
    let kq = key t.order ~now q in
    k.(i) <- kq;
    d.(i) <- tie t.order kq q
  done;
  (k, d)

(* Entry [a] runs before entry [b]. *)
let[@inline] before k d a b =
  let c = Float.compare k.(a) k.(b) in
  if c <> 0 then c < 0
  else
    let c = Float.compare d.(a) d.(b) in
    if c <> 0 then c < 0 else a < b

(* Whether the plan of [n] queries is the buffer's own order whatever
   the keys: FCFS's, and any plan of at most one query. *)
let[@inline] is_identity t n =
  n <= 1 || match t.order with Arrival -> true | _ -> false

(* The plan's first element without the plan: the least entry, in one
   pass, and index 0 without a look at the buffer where the plan is
   the identity. *)
let head t ~now buffer =
  let n = Array.length buffer in
  if n = 0 then invalid_arg "Planner.head: empty buffer";
  if is_identity t n then 0
  else begin
    let k, d = keyed t ~now buffer in
    let best = ref 0 in
    for i = 1 to n - 1 do
      if before k d i !best then best := i
    done;
    !best
  end

(* Ranges of up to [run_length] indices are insertion-sorted in place,
   as [Flat_sla_tree.sort_units] sorts its runs; longer ones are sorted
   by halves, which merge through one scratch array. *)
let run_length = 16

let insertion_sort k d idx lo hi =
  for i = lo + 1 to hi - 1 do
    let x = idx.(i) in
    let j = ref (i - 1) in
    while !j >= lo && before k d x idx.(!j) do
      idx.(!j + 1) <- idx.(!j);
      decr j
    done;
    idx.(!j + 1) <- x
  done

let rec sort k d idx scratch lo hi =
  if hi - lo <= run_length then insertion_sort k d idx lo hi
  else begin
    let mid = (lo + hi) / 2 in
    sort k d idx scratch lo mid;
    sort k d idx scratch mid hi;
    Array.blit idx lo scratch lo (hi - lo);
    let i = ref lo and j = ref mid in
    for out = lo to hi - 1 do
      if !j >= hi || (!i < mid && before k d scratch.(!i) scratch.(!j)) then begin
        idx.(out) <- scratch.(!i);
        incr i
      end
      else begin
        idx.(out) <- scratch.(!j);
        incr j
      end
    done
  end

(* The plan over the keys [k], [d] of [n] entries; none is read where
   the plan is the identity. *)
let sorted_indices t k d n =
  let idx = Array.make n 0 in
  for i = 1 to n - 1 do
    idx.(i) <- i
  done;
  if not (is_identity t n) then
    sort k d idx (Array.make (if n > run_length then n else 0) 0) 0 n;
  idx

let plan t ~now buffer =
  let n = Array.length buffer in
  if is_identity t n then sorted_indices t [||] [||] n
  else
    let k, d = keyed t ~now buffer in
    sorted_indices t k d n

let planned_queries t ~now buffer =
  let perm = plan t ~now buffer in
  Array.map (fun i -> buffer.(i)) perm

(* Inserted into the stable sort, the newcomer is the latest arrival
   and loses every tie, so its rank is the count of entries whose key
   pair is <= its own, in whatever order the keys [k], [d] hold them. *)
let rank_in t ~now k d q =
  let kq = key t.order ~now q in
  let dq = tie t.order kq q in
  let rank = ref 0 in
  for i = 0 to Array.length k - 1 do
    let c = Float.compare k.(i) kq in
    if c < 0 || (c = 0 && Float.compare d.(i) dq <= 0) then incr rank
  done;
  !rank

let insertion_rank t ~now buffer =
  match t.order with
  | Arrival ->
    let n = Array.length buffer in
    fun _ -> n
  | Size | Deadline | Value_deadline | Cost _ ->
    let k, d = keyed t ~now buffer in
    rank_in t ~now k d

(* The rank counts key pairs in any order, so the plan's own keys serve
   it: the buffer is keyed once for both. *)
let planned_with_rank t ~now buffer =
  match t.order with
  | Arrival -> (planned_queries t ~now buffer, insertion_rank t ~now buffer)
  | Size | Deadline | Value_deadline | Cost _ ->
    let k, d = keyed t ~now buffer in
    let perm = sorted_indices t k d (Array.length buffer) in
    (Array.map (fun i -> buffer.(i)) perm, rank_in t ~now k d)

let fcfs = { name = "FCFS"; order = Arrival }
let sjf = { name = "SJF"; order = Size }
let edf = { name = "EDF"; order = Deadline }
let value_edf = { name = "Value-EDF"; order = Value_deadline }

(* The priority depends on elapsed waiting time, so the planned order
   can change between arrivals with no server event at all: never
   cache a CBS plan. *)
let cbs ~rate =
  if rate <= 0.0 then invalid_arg "Planner.cbs: rate must be positive";
  { name = "CBS"; order = Cost rate }
