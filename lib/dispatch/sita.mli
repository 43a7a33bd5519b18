(** Size-Interval Task Assignment (SITA) dispatching — the
    Schroeder & Harchol-Balter baseline cited in paper Sec 2.3.
    Queries are classified by estimated size; each class owns its
    server(s), so short queries never wait behind huge ones. *)

(** SITA-E cutoffs: interior boundaries splitting the sampled total
    work into [classes] equal shares. Ascending, length
    [classes - 1]. *)
val cutoffs_equal_work : sizes:float array -> classes:int -> float array

(** Class index of a size, in [0 .. Array.length cutoffs]. *)
val class_of : cutoffs:float array -> float -> int

(** Dispatcher routing class [c] to servers with
    [sid mod classes = c], least-work-left within the class. *)
val dispatcher : cutoffs:float array -> Dispatchers.t

(** Derive cutoffs from 10 000 sizes sampled from the workload's size
    distribution. *)
val for_workload : seed:int -> Workloads.kind -> classes:int -> Dispatchers.t
