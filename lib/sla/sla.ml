(* Stepwise service level agreements (paper Sec 2.1, Fig 3).

   An SLA maps query response time to provider profit:
     response <= bound_1 -> gain_1
     bound_1 < response <= bound_2 -> gain_2
     ...
     response > bound_K -> -penalty
   with bounds strictly increasing and gains strictly decreasing down to
   -penalty. *)

type level = { bound : float; gain : float }

type component = { comp_bound : float; comp_gain : float }

type t = { levels : level array; penalty : float; comps : component array }

exception Invalid of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(* Decomposition into g/0 components (Sec 4.2, Fig 8): profit(r) =
   offset + sum over components of (gain_k if r <= bound_k else 0),
   where offset = -penalty. Component gains are non-negative by the
   validation in [make]. Components with zero gain are dropped; they
   would create leaves that can never change any answer. Precomputed
   once here — the SLA-tree build expands every buffered query into
   units on each rebuild, and must not re-derive the decomposition. *)
let components_of levels penalty =
  let n = Array.length levels in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let next_gain = if i = n - 1 then -.penalty else levels.(i + 1).gain in
    if levels.(i).gain -. next_gain > 0.0 then incr count
  done;
  let comps =
    Array.make !count { comp_bound = 0.0; comp_gain = 0.0 }
  in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let next_gain = if i = n - 1 then -.penalty else levels.(i + 1).gain in
    let g = levels.(i).gain -. next_gain in
    if g > 0.0 then begin
      comps.(!k) <- { comp_bound = levels.(i).bound; comp_gain = g };
      incr k
    end
  done;
  comps

let of_array ~levels ~penalty =
  if Array.length levels = 0 then invalid "SLA needs at least one level";
  if not (Float.is_finite penalty) then invalid "penalty must be finite";
  if penalty < 0.0 then invalid "penalty must be non-negative";
  Array.iteri
    (fun i { bound; gain } ->
      if not (Float.is_finite bound && Float.is_finite gain) then
        invalid "level %d is not finite" i;
      if bound <= 0.0 then invalid "level %d bound must be positive" i;
      if i > 0 then begin
        if bound <= levels.(i - 1).bound then
          invalid "bounds must be strictly increasing at level %d" i;
        if gain >= levels.(i - 1).gain then
          invalid "gains must be strictly decreasing at level %d" i
      end)
    levels;
  if levels.(Array.length levels - 1).gain < -.penalty then
    invalid "last gain must be >= -penalty (profit is non-increasing)";
  { levels; penalty; comps = components_of levels penalty }

let make ~levels ~penalty = of_array ~levels:(Array.of_list levels) ~penalty

let single_step ~bound ~gain = make ~levels:[ { bound; gain } ] ~penalty:0.0
let one_zero ~bound = single_step ~bound ~gain:1.0

let levels t = Array.to_list t.levels
let num_levels t = Array.length t.levels
let level t i = t.levels.(i)
let penalty t = t.penalty
let max_gain t = t.levels.(0).gain
let first_deadline t = t.levels.(0).bound
let last_deadline t = t.levels.(Array.length t.levels - 1).bound

(* Profit for a query answered [response] after it arrived. On-time is
   inclusive: response = bound still earns the level's gain. The walk
   stops only on [response <= bound], so a NaN response earns the
   penalty. A loop, not a local recursive function: the function would
   capture the float [response] and be allocated on every call.
   Inlined, so that a caller in another module passes [response] and
   gets the gain back without boxing either (the release build only:
   dev's [-opaque] stops inlining across modules). *)
let[@inline] profit t ~response =
  let levels = t.levels in
  let n = Array.length levels in
  let i = ref 0 in
  while !i < n && not (response <= levels.(!i).bound) do
    incr i
  done;
  if !i < n then levels.(!i).gain else -.t.penalty

(* Loss relative to the ideal world in which the first deadline is met
   (the paper's reported metric, Sec 7.1). *)
let loss_vs_ideal t ~response = max_gain t -. profit t ~response

(* The precomputed component array, bounds ascending. Hot-path callers
   (slack-unit expansion) index this directly instead of walking the
   list from [decompose]. *)
let components t = t.comps
let num_components t = Array.length t.comps

let decompose t = (Array.to_list t.comps, -.t.penalty)

(* Reconstruct the profit from a decomposition — used by tests and by
   the naive reference implementation. *)
let profit_of_decomposition (comps, offset) ~response =
  List.fold_left
    (fun acc { comp_bound; comp_gain } ->
      if response <= comp_bound then acc +. comp_gain else acc)
    offset comps

(* Expected profit when the response time is [elapsed + X] with
   X ~ Exp(rate): closed form over the SLA steps. This is the integral
   CBS needs (Sec 6.1 footnote; Peha-Tobagi's memoryless waiting-time
   assumption). Level i earns its gain with probability
   P(above bound i-1) - P(above bound i); each survival term
   P(elapsed + X > bound i) is evaluated once and carried to the next
   level, and the last one weights the penalty. No local function, so
   that the integral inlines into a caller's loop and boxes nothing. *)
let[@inline] expected_profit_exp t ~elapsed ~rate =
  if rate <= 0.0 then invalid_arg "Sla.expected_profit_exp: rate must be > 0";
  let n = Array.length t.levels in
  let acc = ref 0.0 and p_above_prev = ref 1.0 in
  for i = 0 to n - 1 do
    let d = t.levels.(i).bound -. elapsed in
    let p_above_cur = if d <= 0.0 then 1.0 else exp (-.rate *. d) in
    acc := !acc +. (t.levels.(i).gain *. (!p_above_prev -. p_above_cur));
    p_above_prev := p_above_cur
  done;
  !acc +. (-.t.penalty *. !p_above_prev)

let[@inline] expected_loss_exp t ~elapsed ~rate =
  max_gain t -. expected_profit_exp t ~elapsed ~rate

let equal a b =
  a.penalty = b.penalty
  && Array.length a.levels = Array.length b.levels
  && Array.for_all2
       (fun x y -> x.bound = y.bound && x.gain = y.gain)
       a.levels b.levels

let pp ppf t =
  let pp_level ppf { bound; gain } = Fmt.pf ppf "%g@%g" gain bound in
  Fmt.pf ppf "@[<h>SLA[%a; penalty=%g]@]"
    Fmt.(array ~sep:(any ", ") pp_level)
    t.levels t.penalty
