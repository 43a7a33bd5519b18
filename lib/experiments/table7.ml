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

(* Execute the SLA-tree greedy policy offline: repeatedly rush the
   best query, realize its profit, repeat on the remainder. *)
let greedy_execute qs =
  let remaining = ref (Array.to_list qs) in
  let t = ref 0.0 in
  let profit = ref 0.0 in
  let kept_head = ref true in
  while !remaining <> [] do
    let buf = Array.of_list !remaining in
    let i =
      match What_if.best_rush_planned ~now:!t buf with
      | Some (i, _) -> i
      | None -> 0
    in
    if i <> 0 then kept_head := false;
    let q = buf.(i) in
    t := !t +. q.Query.size;
    profit := !profit +. Query.profit_at q ~completion:!t;
    remaining := List.filteri (fun k _ -> k <> i) !remaining
  done;
  (!profit, !kept_head)

let compute () =
  let qs = queries () in
  let original =
    Schedule.scheduled_profit (Schedule.of_queries ~now:0.0 qs)
  in
  let greedy_profit, greedy_keeps_head = greedy_execute qs in
  let optimal =
    Schedule.scheduled_profit
      (Schedule.of_queries ~now:0.0 [| qs.(1); qs.(2); qs.(0) |])
  in
  {
    original_profit = original;
    greedy_profit;
    optimal_profit = optimal;
    greedy_keeps_head;
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
