(** Indexed binary min-heap of int ids keyed by floats.

    Backs [Sim]'s pending completions and its least-work index, whose
    heaps hold server ids.
    Unlike {!Heap}, any member can be re-keyed or removed in O(log n).
    Ids are small non-negative ints: the id-to-slot table grows to the
    largest id seen. *)

(** The heap's arrays, readable but written only by this module. The
    first [len] slots of [keys] and [ids] hold the members in heap
    order: slot 0 is the minimum, and the children of slot [i] are
    slots [2i + 1] and [2i + 2], keyed no lower than it. Ties go to the
    lower id. [slot.(id)] is the slot holding [id], or -1 when [id] is
    absent (also past the end of [slot]). *)
type t = private {
  mutable keys : float array;
  mutable ids : int array;
  mutable len : int;
  mutable slot : int array;
}

(** An empty heap; its arrays are allocated at the first [set]. *)
val create : unit -> t

val mem : t -> int -> bool

(** [set h id key] inserts [id] with [key], or re-keys it if it is
    already a member. *)
val set : t -> int -> float -> unit

(** Remove [id]; nothing happens if it is not a member. *)
val remove : t -> int -> unit
