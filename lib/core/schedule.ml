(* Scheduled start times for an ordered buffer (paper Sec 3.3.1).

   Given queries in their (fixed) execution order and the time [now] at
   which the server becomes free, query 0 starts at [now] and each
   subsequent query starts when its predecessor's *estimated* execution
   finishes. All slack computations are based on estimates because that
   is all the decision maker can see. *)

type entry = { query : Query.t; start : float }

let of_queries ~now queries =
  let t = ref now in
  Array.map
    (fun q ->
      let e = { query = q; start = !t } in
      t := !t +. q.Query.est_size;
      e)
    queries

let completion e = e.start +. e.query.Query.est_size

(* Slack of an SLA-level deadline [bound] for entry [e]: how much the
   entry can be postponed and still meet that deadline (negative slack
   is tardiness). *)
let slack e ~bound = Query.deadline e.query ~bound -. completion e

let total_estimated_work queries =
  Array.fold_left (fun acc q -> acc +. q.Query.est_size) 0.0 queries

(* Total profit of the whole schedule as currently planned. *)
let scheduled_profit entries =
  Array.fold_left
    (fun acc e -> acc +. Query.profit_at e.query ~completion:(completion e))
    0.0 entries
