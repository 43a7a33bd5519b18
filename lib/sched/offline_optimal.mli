(** Exact offline scheduling for small instances (paper Sec 8.2):
    Held-Karp subset DP maximizing total stepwise-SLA profit. Used to
    measure the SLA-tree greedy policy's optimality gap. *)

(** Hard instance-size cap (memory is O(2^n)). *)
val max_queries : int

(** [solve ~now queries] returns the optimal total profit and one
    ordering (as indices into [queries]) achieving it. Raises
    [Invalid_argument] beyond {!max_queries}. *)
val solve : now:float -> Query.t array -> float * int array

(** Profit of a specific execution order. *)
val profit_of_order : now:float -> Query.t array -> int array -> float

(** [greedy ~now queries] runs the SLA-tree greedy policy (rush the
    best what-if at every step), assuming perfect size estimates. It
    returns the realized profit and the order it ran the queries in (as
    indices into [queries]). *)
val greedy : now:float -> Query.t array -> float * int array
