(* An indexed binary min-heap of int ids keyed by floats: parallel
   key/id arrays by heap slot, and [slot.(id)], the slot holding [id]
   (-1 when absent), so any member can be re-keyed or removed in
   O(log n). Ties go to the lower id. The sifts move a hole rather than
   swap. *)

type t = {
  mutable keys : float array;
  mutable ids : int array;
  mutable len : int;
  mutable slot : int array;
}

let create () = { keys = [||]; ids = [||]; len = 0; slot = [||] }
let mem h id = id < Array.length h.slot && h.slot.(id) >= 0

(* The heap order: ([k1], [i1]) comes strictly before ([k2], [i2]). *)
let[@inline] before (k1 : float) (i1 : int) k2 i2 =
  k1 < k2 || (k1 = k2 && i1 < i2)

(* Fill the hole at slot [i] with ([key], [id]), moving it up past
   every parent that should follow it. *)
let sift_up h i key id =
  let i = ref i in
  while !i > 0 && before key id h.keys.((!i - 1) / 2) h.ids.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    h.keys.(!i) <- h.keys.(p);
    h.ids.(!i) <- h.ids.(p);
    h.slot.(h.ids.(p)) <- !i;
    i := p
  done;
  h.keys.(!i) <- key;
  h.ids.(!i) <- id;
  h.slot.(id) <- !i

(* ... or down past every child that should precede it. *)
let sift_down h i key id =
  let i = ref i and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < h.len && before h.keys.(l + 1) h.ids.(l + 1) h.keys.(l) h.ids.(l)
      then l + 1
      else l
    in
    if c < h.len && before h.keys.(c) h.ids.(c) key id then begin
      h.keys.(!i) <- h.keys.(c);
      h.ids.(!i) <- h.ids.(c);
      h.slot.(h.ids.(c)) <- !i;
      i := c
    end
    else fin := true
  done;
  h.keys.(!i) <- key;
  h.ids.(!i) <- id;
  h.slot.(id) <- !i

(* Insert [id] with [key], or re-key it. *)
let set h id key =
  if mem h id then begin
    let i = h.slot.(id) in
    if key < h.keys.(i) then sift_up h i key id else sift_down h i key id
  end
  else begin
    if id >= Array.length h.slot then begin
      let a = Array.make (max (id + 1) (2 * Array.length h.slot)) (-1) in
      Array.blit h.slot 0 a 0 (Array.length h.slot);
      h.slot <- a
    end;
    if h.len = Array.length h.ids then begin
      let cap = max 8 (2 * h.len) in
      let keys = Array.make cap 0.0 and ids = Array.make cap 0 in
      Array.blit h.keys 0 keys 0 h.len;
      Array.blit h.ids 0 ids 0 h.len;
      h.keys <- keys;
      h.ids <- ids
    end;
    h.len <- h.len + 1;
    sift_up h (h.len - 1) key id
  end

let remove h id =
  if mem h id then begin
    let i = h.slot.(id) in
    h.slot.(id) <- -1;
    h.len <- h.len - 1;
    if i < h.len then begin
      (* The last member fills the hole, moving whichever way it must. *)
      let key = h.keys.(h.len) and last = h.ids.(h.len) in
      if i > 0 && before key last h.keys.((i - 1) / 2) h.ids.((i - 1) / 2)
      then sift_up h i key last
      else sift_down h i key last
    end
  end
