(** Flat, arena-backed SLA-tree: the augmented, pointer-cascaded
    search tree of paper Sec 5, laid out as structure-of-arrays with an
    implicit preorder node layout.

    Construction expands a scheduled buffer straight into pooled
    key/uid/gain arrays (one pre-sized pass), partitions into the S+
    and S- regions, merge-sorts each through arena scratch, and fills
    both cascades bottom-up into a reusable {!arena} — no per-node
    boxing and, once the arena has grown to the working-set size, no
    allocation at all.

    Every float stored or returned is bit-identical to the boxed tree
    the tests keep as its oracle ([Cascade_tree], in [test/oracle]) over
    the same schedule: same sort permutation (the (key, uid) comparator
    is a strict total order), same merge order, same cumulative-sum
    order, same probe accumulation order. The flat-vs-boxed suite gates
    on this. *)

(** Which comparison of a unit's key against [tau] selects it. [Lt]
    counts [key < tau] (slack tree: postponing by [tau] misses
    deadlines with slack strictly below [tau]); [Le] counts
    [key <= tau] (tardiness tree: expediting by [tau] rescues tardiness
    up to and including [tau]). *)
type mode = Lt | Le

(** Growable backing store for trees. One arena holds ONE live tree:
    {!build} resets the arena's cursors, so it invalidates any tree
    previously built from the same arena. Never share an arena across
    domains. *)
type arena

val create_arena : unit -> arena

(** One cascade: the slack tree S+ or the tardiness tree S-. *)
type cascade

type t

(** [build arena entries] expands, partitions, sorts and builds both
    cascades inside [arena]. O(NK log NK). *)
val build : arena -> Schedule.entry array -> t

(** Units per insertion-sorted run of the build's merge sort; exposed
    so tests can aim unit counts at the sort's seams. *)
val run_length : int

(** One cascade over raw [(key, uid, gain)] units, for suites that
    compare it with the boxed oracle over the same adversarial units.
    Resets the arena like {!build}. *)
val of_units : arena -> (float * int * float) array -> cascade

val slack : t -> cascade
val tardy : t -> cascade
val unit_count : cascade -> int

(** Total gain of units with buffer position [<= n] whose key
    satisfies the mode's comparison against [tau]: the paper's
    [postpone(1, n, tau)] (resp. [expedite]) primitive. O(log M). *)
val prefix_loss : cascade -> mode -> n:int -> tau:float -> float

(** Total gain of units with buffer position [<= n]. O(log M). *)
val prefix_total : cascade -> n:int -> float

val total : cascade -> float

(** Height of the cascade (0 when empty). *)
val depth : cascade -> int
