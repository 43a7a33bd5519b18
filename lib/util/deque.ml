(* Growable ring buffer. The simulator's per-server buffers live here,
   so push/pop must not allocate and indexing must be O(1).

   [data] is allocated at the first push (there is no way to conjure an
   'a out of thin air before that); [filler] keeps one element around
   to overwrite freed slots with, so popped values are not retained. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int;  (* index of the front element *)
  mutable size : int;
  mutable want : int;  (* requested initial capacity *)
  mutable filler : 'a array;  (* length 0 until first push, then 1 *)
}

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Deque.create: negative capacity";
  { data = [||]; head = 0; size = 0; want = max capacity 1; filler = [||] }

let length t = t.size
let is_empty t = t.size = 0
let capacity t = Array.length t.data

(* The physical slot of the i-th element, for [0 <= i <= capacity]:
   [head + i] passes the end at most once, so one compare and one
   subtract wrap it. *)
let[@inline] slot t i =
  let j = t.head + i and cap = Array.length t.data in
  if j >= cap then j - cap else j

let clear_slot t i = t.data.(i) <- t.filler.(0)

(* Copy the elements, front to back, into [dst] from index 0: the
   ring's one or two contiguous runs, one blit each. *)
let blit_out t dst =
  let first = Array.length t.data - t.head in
  if t.size <= first then Array.blit t.data t.head dst 0 t.size
  else begin
    Array.blit t.data t.head dst 0 first;
    Array.blit t.data 0 dst first (t.size - first)
  end

(* Grow (or lazily allocate) so one more element fits; unwraps the ring
   so [head] returns to 0. *)
let ensure_room t x =
  let cap = Array.length t.data in
  if cap = 0 then begin
    t.data <- Array.make t.want x;
    t.filler <- [| x |];
    t.head <- 0
  end
  else if t.size = cap then begin
    let ndata = Array.make (cap * 2) x in
    blit_out t ndata;
    t.data <- ndata;
    t.head <- 0
  end

let push_back t x =
  ensure_room t x;
  t.data.(slot t t.size) <- x;
  t.size <- t.size + 1

let pop_front t =
  if t.size = 0 then invalid_arg "Deque.pop_front: empty deque";
  let x = t.data.(t.head) in
  clear_slot t t.head;
  t.head <- slot t 1;
  t.size <- t.size - 1;
  if t.size = 0 then t.head <- 0;
  x

let peek_front t = if t.size = 0 then None else Some t.data.(t.head)

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Deque.get: index out of bounds";
  t.data.(slot t i)

(* Each shift moves one run by one slot: a run that does not cross the
   physical end is one [Array.blit], which is correct on overlapping
   ranges; one that crosses it moves element by element. *)
let remove t i =
  if i < 0 || i >= t.size then invalid_arg "Deque.remove: index out of bounds";
  let p = slot t i in
  let x = t.data.(p) in
  if i <= t.size - 1 - i then begin
    (* Shift the front part towards the back by one. *)
    if t.head + i < Array.length t.data then
      Array.blit t.data t.head t.data (t.head + 1) i
    else
      for j = i downto 1 do
        t.data.(slot t j) <- t.data.(slot t (j - 1))
      done;
    clear_slot t t.head;
    t.head <- slot t 1
  end
  else begin
    (* Shift the back part towards the front by one. *)
    let k = t.size - 1 - i in
    if p + k < Array.length t.data then Array.blit t.data (p + 1) t.data p k
    else
      for j = i to t.size - 2 do
        t.data.(slot t j) <- t.data.(slot t (j + 1))
      done;
    clear_slot t (slot t (t.size - 1))
  end;
  t.size <- t.size - 1;
  if t.size = 0 then t.head <- 0;
  x

let filter_in_place t ~f =
  let removed = ref [] in
  let w = ref 0 in
  for r = 0 to t.size - 1 do
    let x = t.data.(slot t r) in
    if f x then begin
      if !w <> r then t.data.(slot t !w) <- x;
      incr w
    end
    else removed := x :: !removed
  done;
  for i = !w to t.size - 1 do
    clear_slot t (slot t i)
  done;
  t.size <- !w;
  if t.size = 0 then t.head <- 0;
  List.rev !removed

let clear t =
  for i = 0 to t.size - 1 do
    clear_slot t (slot t i)
  done;
  t.size <- 0;
  t.head <- 0

let iter t ~f =
  for i = 0 to t.size - 1 do
    f t.data.(slot t i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(slot t i)
  done;
  !acc

let to_array t =
  if t.size = 0 then [||]
  else if t.head + t.size <= Array.length t.data then
    Array.sub t.data t.head t.size
  else begin
    let a = Array.make t.size t.data.(t.head) in
    blit_out t a;
    a
  end

let to_list t =
  let rec go acc i = if i < 0 then acc else go (t.data.(slot t i) :: acc) (i - 1) in
  go [] (t.size - 1)
