(* A query as the framework sees it: arrival time, (estimated and
   actual) execution time, and its SLA. All decision making uses the
   estimate [est_size]; the simulator charges the actual [size]
   (Sec 7.5 robustness experiments make the two differ).

   [retries] counts how many times the query has been re-injected
   after a server crash killed it. The retry copy keeps the original
   [arrival]: the SLA clock never resets, so stepwise profit keeps
   bleeding while the query waits for another slot (the paper's
   response time is always measured from first arrival).

   [tenant] names the paying customer the query belongs to (0 = the
   anonymous single-tenant default every pre-tenancy code path uses);
   profiles, price tiers and per-tenant accounting live in
   [Slatree_tenancy]. *)

type t = {
  id : int;
  arrival : float;
  size : float;
  est_size : float;
  sla : Sla.t;
  retries : int;
  tenant : int;
}

let make ?est_size ?(retries = 0) ?(tenant = 0) ~id ~arrival ~size ~sla () =
  if not (Float.is_finite size) then
    invalid_arg "Query.make: size must be finite";
  if size < 0.0 then invalid_arg "Query.make: size must be non-negative";
  if not (Float.is_finite arrival) then
    invalid_arg "Query.make: arrival must be finite";
  if arrival < 0.0 then invalid_arg "Query.make: arrival must be non-negative";
  if retries < 0 then invalid_arg "Query.make: retries must be non-negative";
  if tenant < 0 then invalid_arg "Query.make: tenant must be non-negative";
  let est_size = Option.value est_size ~default:size in
  if not (Float.is_finite est_size) then
    invalid_arg "Query.make: est_size must be finite";
  if est_size < 0.0 then invalid_arg "Query.make: est_size must be non-negative";
  { id; arrival; size; est_size; sla; retries; tenant }

let retried t = { t with retries = t.retries + 1 }

(* Absolute deadline of level [k] of [t.sla]. *)
let[@inline] deadline t ~bound = t.arrival +. bound

let[@inline] first_deadline t = t.arrival +. Sla.first_deadline t.sla

let[@inline] profit_at t ~completion =
  Sla.profit t.sla ~response:(completion -. t.arrival)

let[@inline] loss_at t ~completion =
  Sla.loss_vs_ideal t.sla ~response:(completion -. t.arrival)

let ideal_profit t = Sla.max_gain t.sla

let compare_by_id a b = Int.compare a.id b.id

let pp ppf t =
  Fmt.pf ppf "q%d(arr=%g size=%g est=%g %a%t)" t.id t.arrival t.size t.est_size
    Sla.pp t.sla (fun ppf ->
      if t.tenant > 0 then Fmt.pf ppf " t%d" t.tenant;
      if t.retries > 0 then Fmt.pf ppf " retry=%d" t.retries)
