(** Array-backed binary min-heap.

    Backs the serving daemon's hold queue of future-stamped
    submissions. [push] and [pop] are O(log n), [peek] is O(1). *)

type 'a t

(** [create cmp] makes an empty heap ordered by [cmp] (minimum first).
    The backing array is allocated at the first [push]. *)
val create : ('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** Smallest element without removing it. *)
val peek : 'a t -> 'a option

val peek_exn : 'a t -> 'a

(** Remove and return the smallest element. The vacated slot in the
    backing array is overwritten with a junk value so the popped
    element is not pinned against the GC (same technique as
    [Deque]'s filler slot). *)
val pop : 'a t -> 'a option

val pop_exn : 'a t -> 'a
