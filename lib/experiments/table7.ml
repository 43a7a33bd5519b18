(* Table 7 (Sec 8.2): the three-query instance on which greedy
   SLA-tree scheduling is not globally optimal. Reproduced as an
   executable demonstration. *)

type result = {
  original_profit : float;
  greedy_profit : float;
  optimal_profit : float;
  greedy_keeps_head : bool;
}

let queries () =
  let mk id size bound gain =
    Query.make ~id ~arrival:0.0 ~size ~sla:(Sla.single_step ~bound ~gain) ()
  in
  [| mk 0 1.0 1.0 1.0; mk 1 0.5 1.0 0.6; mk 2 0.5 1.0 0.6 |]

let compute () =
  let qs = queries () in
  let original =
    Schedule.scheduled_profit (Schedule.of_queries ~now:0.0 qs)
  in
  let greedy_profit, order = Offline_optimal.greedy ~now:0.0 qs in
  let optimal =
    Schedule.scheduled_profit
      (Schedule.of_queries ~now:0.0 [| qs.(1); qs.(2); qs.(0) |])
  in
  {
    original_profit = original;
    greedy_profit;
    optimal_profit = optimal;
    (* Each pick was the head of what remained exactly when the
       queries ran in their original order. *)
    greedy_keeps_head = order = Array.init (Array.length qs) Fun.id;
  }

let run ppf () =
  let r = compute () in
  Fmt.pf ppf "@.=== Table 7: greedy non-optimality example ===@.";
  Fmt.pf ppf
    "3 queries, all due at t=1: q1 (exec 1.0, $1), q2 and q3 (exec 0.5, $0.6 \
     each)@.";
  Fmt.pf ppf "original schedule profit: $%.2f@." r.original_profit;
  Fmt.pf ppf "SLA-tree greedy profit:   $%.2f (keeps q1 first: %b)@."
    r.greedy_profit r.greedy_keeps_head;
  Fmt.pf ppf "optimal schedule profit:  $%.2f (q2, q3 first)@." r.optimal_profit;
  Fmt.pf ppf
    "greedy never falls below the original schedule, but misses the optimum \
     (Sec 8.2).@."
