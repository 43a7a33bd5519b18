(* The SLA-tree facade: a slack tree S+ and a tardiness tree S- over an
   ordered, scheduled query buffer, answering the paper's two key
   questions (Sec 3.1):

     postpone(m, n, tau): profit lost if queries m..n (0-based,
       inclusive) are postponed by tau;
     expedite(m, n, tau): profit gained if queries m..n are expedited
       by tau.

   Both use the additive property postpone(m,n,t) = postpone(0,n,t) -
   postpone(0,m-1,t) and cost O(log NK) after the O(NK log NK) build.

   The tree is the flat arena-backed structure-of-arrays layout
   ([Flat_sla_tree]); the boxed [Cascade_tree] it was derived from is
   kept only as the bit-identical oracle the tests compare against. *)

type t = { entries : Schedule.entry array; tree : Flat_sla_tree.t; now : float }

type arena = Flat_sla_tree.arena

let create_arena = Flat_sla_tree.create_arena

let of_entries ?arena ~now entries =
  let arena =
    match arena with Some a -> a | None -> Flat_sla_tree.create_arena ()
  in
  { entries; tree = Flat_sla_tree.build arena entries; now }

let build ?arena ~now queries =
  of_entries ?arena ~now (Schedule.of_queries ~now queries)

let length t = Array.length t.entries
let now t = t.now
let entries t = t.entries

let entry t i =
  if i < 0 || i >= Array.length t.entries then
    invalid_arg "Sla_tree.entry: index out of bounds";
  t.entries.(i)

let slack t = Flat_sla_tree.slack t.tree
let tardy t = Flat_sla_tree.tardy t.tree

let unit_counts t =
  (Flat_sla_tree.unit_count (slack t), Flat_sla_tree.unit_count (tardy t))

let check_range t ~m ~n =
  let len = Array.length t.entries in
  if m < 0 || n >= len || m > n then
    invalid_arg
      (Printf.sprintf "Sla_tree: bad range [%d, %d] for %d queries" m n len)

(* Prefix questions against S+ (mode Lt) and S- (mode Le). [n < 0]
   denotes the empty prefix. *)
let prefix_slack t ~n ~tau =
  if n < 0 then 0.0
  else Flat_sla_tree.prefix_loss (slack t) Cascade_tree.Lt ~n ~tau

let prefix_tardy t ~n ~tau =
  if n < 0 then 0.0
  else Flat_sla_tree.prefix_loss (tardy t) Cascade_tree.Le ~n ~tau

(* Probes over an empty buffer are defined and answer 0.0: no queries,
   nothing to lose or recover. Ranges are only validated against a
   non-empty buffer (callers need no [if n = 0] guards). *)

let postpone t ~m ~n ~tau =
  if tau < 0.0 then invalid_arg "Sla_tree.postpone: tau must be non-negative";
  if Array.length t.entries = 0 then 0.0
  else begin
    check_range t ~m ~n;
    if tau = 0.0 then 0.0
    else prefix_slack t ~n ~tau -. prefix_slack t ~n:(m - 1) ~tau
  end

let expedite t ~m ~n ~tau =
  if tau < 0.0 then invalid_arg "Sla_tree.expedite: tau must be non-negative";
  if Array.length t.entries = 0 then 0.0
  else begin
    check_range t ~m ~n;
    if tau = 0.0 then 0.0
    else prefix_tardy t ~n ~tau -. prefix_tardy t ~n:(m - 1) ~tau
  end

(* Profit currently at stake (still earnable) among queries 0..n: the
   gains of all their on-time units. *)
let profit_at_stake t ~n =
  if n < 0 then 0.0 else Flat_sla_tree.prefix_total (slack t) ~n

let total_profit_at_stake t = Flat_sla_tree.total (slack t)

(* Profit already forfeited (late units) among queries 0..n that could
   in principle be recovered by expediting. *)
let recoverable_profit t ~n =
  if n < 0 then 0.0 else Flat_sla_tree.prefix_total (tardy t) ~n

let total_recoverable_profit t = Flat_sla_tree.total (tardy t)
