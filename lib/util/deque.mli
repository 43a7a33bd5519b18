(** Array-backed FIFO deque (growable ring buffer).

    Backs the simulator's per-server buffers, so the common operations
    are allocation-free: [push_back]/[pop_front] are amortized O(1),
    [get]/[length] are O(1). Indices are relative to the front
    (0 = oldest element). *)

type 'a t

(** [create ?capacity ()] makes an empty deque. The backing array is
    allocated lazily at the first push (at least [capacity] slots). *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Physical slots currently allocated (introspection for tests). *)
val capacity : 'a t -> int

val push_back : 'a t -> 'a -> unit

(** Remove and return the oldest element. Raises [Invalid_argument]
    when empty. *)
val pop_front : 'a t -> 'a

(** Oldest element without removing it. *)
val peek_front : 'a t -> 'a option

(** [get t i] is the i-th element from the front; O(1). Raises
    [Invalid_argument] out of bounds. *)
val get : 'a t -> int -> 'a

(** [remove t i] removes and returns the i-th element, preserving the
    order of the others; O(min(i, n-i)) moves, no allocation. The
    moved run is one [Array.blit] unless it crosses the ring's
    physical end. *)
val remove : 'a t -> int -> 'a

(** Remove every element on which [f] is false, preserving order;
    returns the removed elements front-to-back. O(n). *)
val filter_in_place : 'a t -> f:('a -> bool) -> 'a list

val clear : 'a t -> unit

val iter : 'a t -> f:('a -> unit) -> unit

(** Left fold, front to back. *)
val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b

(** Elements front-to-back in a fresh array: one [Array.sub] of the
    ring's run, or two blits when it wraps the physical end. *)
val to_array : 'a t -> 'a array

val to_list : 'a t -> 'a list
