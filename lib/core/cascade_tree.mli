(** The augmented, pointer-cascaded balanced search tree of paper Sec 5.

    One tree instance serves either as the slack tree [S+] or the
    tardiness tree [S-]; the only difference is the comparison {!mode}
    used when querying. Building over [M] units costs [O(M log M)]
    time and space; each prefix question costs [O(log M)].

    Production code runs the same tree laid out flat
    ({!Flat_sla_tree}); this boxed form is the bit-identity oracle the
    tests compare it against. *)

type t

(** [Lt] counts units with [key < tau] (slack tree: postponing by [tau]
    misses deadlines with slack strictly below [tau]); [Le] counts
    [key <= tau] (tardiness tree: expediting by [tau] rescues tardiness
    up to and including [tau]). *)
type mode = Lt | Le

(** [build units] sorts the units by [slack] (interpreted as the tree
    key, so pass tardiness values for [S-]) and builds the tree. *)
val build : Slack_units.t array -> t

val unit_count : t -> int

(** [prefix_loss t mode ~n ~tau] is the total gain of units whose
    buffer position is [<= n] and whose key satisfies the mode's
    comparison against [tau]. This is the paper's [postpone(1, n, tau)]
    (resp. [expedite]) primitive. O(log M). *)
val prefix_loss : t -> mode -> n:int -> tau:float -> float

(** The paper's pointer-free first implementation (Sec 3.3.3): same
    answer as {!prefix_loss} but with one binary search per visited
    level — [O(log^2 M)]. Ablation baseline for the fractional
    cascading of Sec 5. *)
val prefix_loss_binary_search : t -> mode -> n:int -> tau:float -> float

(** Total gain of units with buffer position [<= n], regardless of
    key. O(log M). *)
val prefix_total : t -> n:int -> float

(** Total gain of all units in the tree. *)
val total : t -> float

(** Assert every structural invariant (splits separate keys, id lists
    sorted, cumulative gains consistent, cascading pointers correct).
    O(M^2); for tests only. *)
val check_invariants : t -> unit

(** Height of the tree (0 when empty). *)
val depth : t -> int
