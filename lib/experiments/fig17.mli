(** Figure 17 (Sec 7.6): running time of one SLA-tree scheduling
    decision (full build plus one postpone question per buffered
    query) as the buffer grows. *)

val default_buffer_sizes : int list

type point = {
  buffer_len : int;
  ms_per_decision : float;
  slack_units : int;
}

(** A saturated-server buffer with far-future deadlines (large slack
    trees — the paper's stress setup). *)
val make_buffer : seed:int -> int -> Query.t array

(** One decision as the figure times it: build the tree over [buffer]
    (into [arena] when given) and ask {!What_if.rush_net_gain} at every
    position. *)
val decision : ?arena:Sla_tree.arena -> now:float -> Query.t array -> unit

val compute : ?buffer_sizes:int list -> seed:int -> unit -> point list

(** Write a gnuplot-ready [fig17.dat] into [dir]; returns the path. *)
val export : ?buffer_sizes:int list -> dir:string -> seed:int -> unit -> string

val run : Format.formatter -> seed:int -> unit -> unit
