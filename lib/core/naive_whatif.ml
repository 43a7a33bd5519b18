(* Reference implementations of postpone/expedite (paper Sec 3.2).

   Two independent oracles:
   - [*_by_units]: scan the g/0 unit expansion, O(NK) per question;
   - [*_by_recompute]: re-evaluate every affected query's stepwise SLA
     at its shifted completion time, bypassing the decomposition
     entirely.
   The test suite checks tree == units == recompute; the experiments
   never use this module, and the bench times [postpone_by_units] only
   as the baseline the tree replaces. *)

let check_range entries ~m ~n =
  let len = Array.length entries in
  if m < 0 || n >= len || m > n then
    invalid_arg
      (Printf.sprintf "naive what-if: bad range [%d, %d] for %d queries" m n len)

let postpone_by_units entries ~m ~n ~tau =
  check_range entries ~m ~n;
  if tau < 0.0 then invalid_arg "postpone: tau must be non-negative";
  let units = Slack_units.of_schedule entries in
  Array.fold_left
    (fun acc u ->
      if
        u.Slack_units.uid >= m && u.uid <= n && u.slack >= 0.0
        && u.slack < tau
      then acc +. u.gain
      else acc)
    0.0 units

let expedite_by_units entries ~m ~n ~tau =
  check_range entries ~m ~n;
  if tau < 0.0 then invalid_arg "expedite: tau must be non-negative";
  let units = Slack_units.of_schedule entries in
  Array.fold_left
    (fun acc u ->
      if
        u.Slack_units.uid >= m && u.uid <= n && u.slack < 0.0
        && -.u.slack <= tau
      then acc +. u.gain
      else acc)
    0.0 units

let profit_delta entries ~m ~n ~shift =
  check_range entries ~m ~n;
  let acc = ref 0.0 in
  for i = m to n do
    let e = entries.(i) in
    let completion = Schedule.completion e in
    let before = Query.profit_at e.Schedule.query ~completion in
    let after = Query.profit_at e.Schedule.query ~completion:(completion +. shift) in
    acc := !acc +. (after -. before)
  done;
  !acc

(* Profit lost by postponing: original minus shifted. *)
let postpone_by_recompute entries ~m ~n ~tau =
  if tau < 0.0 then invalid_arg "postpone: tau must be non-negative";
  -.profit_delta entries ~m ~n ~shift:tau

(* Profit gained by expediting: shifted minus original. *)
let expedite_by_recompute entries ~m ~n ~tau =
  if tau < 0.0 then invalid_arg "expedite: tau must be non-negative";
  profit_delta entries ~m ~n ~shift:(-.tau)
