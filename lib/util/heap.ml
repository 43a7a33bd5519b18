(* Array-backed binary min-heap under a comparator, with amortized
   O(1) growth. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  cmp : 'a -> 'a -> int;
  (* Same trick as [Deque.filler]: a junk value of type ['a] (the first
     element ever pushed) used to overwrite vacated slots, so popped
     elements — queries, closures — are not pinned against the GC for
     the heap's lifetime. Length 0 until the first push, 1 after. *)
  mutable filler : 'a array;
}

(* The backing array is allocated at the first push: there is no
   dummy ['a] to fill it with before that. *)
let create cmp = { data = [||]; size = 0; cmp; filler = [||] }

let length t = t.size

let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ndata = Array.make (if cap = 0 then 16 else cap * 2) x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  if Array.length t.filler = 0 then t.filler <- [| x |];
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let peek_exn t =
  if t.size = 0 then invalid_arg "Heap.peek_exn: empty heap";
  t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    (* Slot [t.size] is vacated either way: it held the element we just
       moved to the root, or (when the heap emptied) the root itself. *)
    t.data.(t.size) <- t.filler.(0);
    Some top
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"
