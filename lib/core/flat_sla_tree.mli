(** Flat, arena-backed SLA-tree: {!Cascade_tree} re-laid-out as
    structure-of-arrays with an implicit preorder node layout.

    Construction expands a scheduled buffer straight into pooled
    key/uid/gain arrays (one pre-sized pass), partitions into the S+
    and S- regions, merge-sorts each through arena scratch, and fills
    both cascades bottom-up into a reusable {!arena} — no per-node
    boxing and, once the arena has grown to the working-set size, no
    allocation at all.

    Every float stored or returned is bit-identical to the boxed
    {!Cascade_tree} over the same schedule: same sort permutation (the
    (key, uid) comparator is a strict total order), same merge order,
    same cumulative-sum order, same probe accumulation order. The
    equivalence suite gates on this. *)

(** Growable backing store for trees. One arena holds ONE live tree:
    {!build} resets the arena's cursors, so it invalidates any tree
    previously built from the same arena. Never share an arena across
    domains. *)
type arena

val create_arena : unit -> arena

(** One cascade (S+ or S-); compare {!Cascade_tree.t}. *)
type cascade

type t

(** [build arena entries] expands, partitions, sorts and builds both
    cascades inside [arena]. O(NK log NK). *)
val build : arena -> Schedule.entry array -> t

(** Units per insertion-sorted run of the build's merge sort; exposed
    so tests can aim unit counts at the sort's seams. *)
val run_length : int

(** One cascade from raw units — the input contract of
    {!Cascade_tree.build}, for suites that compare both implementations
    over the same unit array. Resets the arena like {!build}. *)
val of_units : arena -> Slack_units.t array -> cascade

val slack : t -> cascade
val tardy : t -> cascade
val unit_count : cascade -> int

(** Same contract as {!Cascade_tree.prefix_loss}: total gain of units
    with buffer position [<= n] whose key satisfies the mode's
    comparison against [tau]. O(log M). *)
val prefix_loss : cascade -> Cascade_tree.mode -> n:int -> tau:float -> float

(** The pointer-free O(log^2 M) walk (ablation baseline / test
    oracle); same answer as {!prefix_loss}. *)
val prefix_loss_binary_search :
  cascade -> Cascade_tree.mode -> n:int -> tau:float -> float

(** Total gain of units with buffer position [<= n]. O(log M). *)
val prefix_total : cascade -> n:int -> float

val total : cascade -> float

(** Height of the cascade (0 when empty). *)
val depth : cascade -> int
