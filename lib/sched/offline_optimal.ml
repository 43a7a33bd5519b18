(* Exact offline scheduling for small instances (paper Sec 8.2).

   Maximizing total stepwise-SLA profit over all orderings is
   NP-complete, but a Held-Karp style dynamic program over subsets is
   exact in O(2^n * n^2) time: the completion time of the next query
   depends only on the *set* of queries already executed (the sum of
   their actual sizes), not their order, so

     best(S) = max over q not in S of
                 profit(q completes at t0 + size(S) + size_q) + best(S + {q})

   This bounds n at ~20 in practice; it exists to *measure* how far
   the SLA-tree greedy policy sits from the true optimum, not to run
   in production. *)

let max_queries = 22

(* Optimal total profit and one ordering achieving it, executing all
   queries back-to-back from [now] with their actual sizes. *)
let solve ~now queries =
  let n = Array.length queries in
  if n > max_queries then
    invalid_arg
      (Printf.sprintf "Offline_optimal.solve: %d queries exceeds the %d cap" n
         max_queries);
  if n = 0 then (0.0, [||])
  else begin
    let sizes = Array.map (fun q -> q.Query.size) queries in
    let full = (1 lsl n) - 1 in
    (* size_of.(s) = total size of the queries in subset s; filled
       incrementally from s with one bit removed. *)
    let size_of = Array.make (full + 1) 0.0 in
    for s = 1 to full do
      let b = s land -s in
      let i =
        (* index of the lowest set bit *)
        let rec go k = if b lsr k = 1 then k else go (k + 1) in
        go 0
      in
      size_of.(s) <- size_of.(s lxor b) +. sizes.(i)
    done;
    (* best.(s) = max profit obtainable from the queries NOT in s,
       given that the ones in s already executed. Iterate subsets in
       decreasing popcount order by plain downward index order:
       s lor bit > s, so best.(s lor bit) is already final when we
       compute best.(s). choice.(s) records the argmax. *)
    let best = Array.make (full + 1) 0.0 in
    let choice = Array.make (full + 1) (-1) in
    for s = full - 1 downto 0 do
      let t_base = now +. size_of.(s) in
      let best_v = ref neg_infinity and best_q = ref (-1) in
      for q = 0 to n - 1 do
        if s land (1 lsl q) = 0 then begin
          let completion = t_base +. sizes.(q) in
          let v =
            Query.profit_at queries.(q) ~completion +. best.(s lor (1 lsl q))
          in
          if v > !best_v then begin
            best_v := v;
            best_q := q
          end
        end
      done;
      best.(s) <- !best_v;
      choice.(s) <- !best_q
    done;
    (* Reconstruct one optimal order. *)
    let order = Array.make n 0 in
    let s = ref 0 in
    for k = 0 to n - 1 do
      let q = choice.(!s) in
      order.(k) <- q;
      s := !s lor (1 lsl q)
    done;
    (best.(0), order)
  end

(* Profit of executing [queries] in the given index order from
   [now]. *)
let profit_of_order ~now queries order =
  let t = ref now in
  Array.fold_left
    (fun acc i ->
      let q = queries.(i) in
      t := !t +. q.Query.size;
      acc +. Query.profit_at q ~completion:!t)
    0.0 order

(* Profit realized by the SLA-tree greedy policy offline (est = actual
   assumed, as in Sec 8.2's discussion). *)
let greedy_profit ~now queries =
  let remaining = ref (Array.to_list queries) in
  let t = ref now in
  let profit = ref 0.0 in
  while !remaining <> [] do
    let buf = Array.of_list !remaining in
    let i =
      match What_if.best_rush_planned ~now:!t buf with
      | Some (i, _) -> i
      | None -> 0
    in
    let q = buf.(i) in
    t := !t +. q.Query.size;
    profit := !profit +. Query.profit_at q ~completion:!t;
    remaining := List.filteri (fun k _ -> k <> i) !remaining
  done;
  !profit
