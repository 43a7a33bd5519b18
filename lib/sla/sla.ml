(* Stepwise service level agreements (paper Sec 2.1, Fig 3).

   An SLA maps query response time to provider profit:
     response <= bound_1 -> gain_1
     bound_1 < response <= bound_2 -> gain_2
     ...
     response > bound_K -> -penalty
   with bounds strictly increasing and gains strictly decreasing down to
   -penalty.

   The staircase is stored flat: [bounds] holds the K bounds and [gains]
   the K gains followed by -penalty, so the walk in [profit] ends in one
   load whichever step it stops on. Both are unboxed float arrays, and
   so are the g/0 components' [comp_bounds]/[comp_gains]: the hot
   readers (the profit walk, the CBS integral, the rush probes and the
   dispatch loss loop) touch floats only, and read them without bounds
   checks: [of_array], the only constructor, fixes the lengths
   ([gains] one slot longer than [bounds], [comp_gains] as long as
   [comp_bounds]). A workload builds each of its contracts once and
   every query of that contract shares the value
   (Workloads.assign_sla). *)

type level = { bound : float; gain : float }

type component = { comp_bound : float; comp_gain : float }

type t = {
  bounds : float array;
  gains : float array;  (* one slot more than [bounds]: -penalty last *)
  comp_bounds : float array;
  comp_gains : float array;
}

exception Invalid of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(* Decomposition into g/0 components (Sec 4.2, Fig 8): profit(r) =
   offset + sum over components of (gain_k if r <= bound_k else 0),
   where offset = -penalty. Component i's gain is the drop from step i
   to step i + 1, the penalty slot included; gains are non-negative by
   the validation in [of_array]. Components with zero gain are dropped;
   they would create leaves that can never change any answer. Computed
   once here: the SLA-tree build expands every buffered query into
   units on each rebuild, and must not re-derive the decomposition. *)
let components_of bounds gains =
  let n = Array.length bounds in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if gains.(i) -. gains.(i + 1) > 0.0 then incr count
  done;
  let comp_bounds = Array.create_float !count
  and comp_gains = Array.create_float !count in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let g = gains.(i) -. gains.(i + 1) in
    if g > 0.0 then begin
      comp_bounds.(!k) <- bounds.(i);
      comp_gains.(!k) <- g;
      incr k
    end
  done;
  (comp_bounds, comp_gains)

let of_array ~bounds ~gains ~penalty =
  let n = Array.length bounds in
  if Array.length gains <> n + 1 then
    invalid "gains must hold one slot more than bounds";
  if n = 0 then invalid "SLA needs at least one level";
  if not (Float.is_finite penalty) then invalid "penalty must be finite";
  if penalty < 0.0 then invalid "penalty must be non-negative";
  for i = 0 to n - 1 do
    let bound = bounds.(i) and gain = gains.(i) in
    if not (Float.is_finite bound && Float.is_finite gain) then
      invalid "level %d is not finite" i;
    if bound <= 0.0 then invalid "level %d bound must be positive" i;
    if i > 0 then begin
      if bound <= bounds.(i - 1) then
        invalid "bounds must be strictly increasing at level %d" i;
      if gain >= gains.(i - 1) then
        invalid "gains must be strictly decreasing at level %d" i
    end
  done;
  if gains.(n - 1) < -.penalty then
    invalid "last gain must be >= -penalty (profit is non-increasing)";
  gains.(n) <- -.penalty;
  let comp_bounds, comp_gains = components_of bounds gains in
  { bounds; gains; comp_bounds; comp_gains }

let make ~levels ~penalty =
  let levels = Array.of_list levels in
  let n = Array.length levels in
  let bounds = Array.create_float n and gains = Array.create_float (n + 1) in
  Array.iteri
    (fun i { bound; gain } ->
      bounds.(i) <- bound;
      gains.(i) <- gain)
    levels;
  of_array ~bounds ~gains ~penalty

let single_step ~bound ~gain = make ~levels:[ { bound; gain } ] ~penalty:0.0
let one_zero ~bound = single_step ~bound ~gain:1.0

let num_levels t = Array.length t.bounds
let level t i = { bound = t.bounds.(i); gain = t.gains.(i) }
let levels t = List.init (num_levels t) (level t)
let bounds t = t.bounds
let gains t = t.gains
let penalty t = -.t.gains.(Array.length t.bounds)
let max_gain t = t.gains.(0)
let first_deadline t = t.bounds.(0)
let last_deadline t = t.bounds.(Array.length t.bounds - 1)

(* Profit for a query answered [response] after it arrived. On-time is
   inclusive: response = bound still earns the level's gain. The walk
   stops only on [response <= bound], so a NaN response runs past the
   last bound and earns the penalty slot. A loop, not a local recursive
   function: the function would capture the float [response] and be
   allocated on every call. Inlined, so that a caller in another module
   passes [response] and gets the gain back without boxing either (the
   release build only: dev's [-opaque] stops inlining across
   modules). *)
let[@inline] profit t ~response =
  let bounds = t.bounds in
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && not (response <= Array.unsafe_get bounds !i) do
    incr i
  done;
  (* [!i <= n], and [gains] has [n + 1] slots (checked in [of_array]) *)
  Array.unsafe_get t.gains !i

(* Loss relative to the ideal world in which the first deadline is met
   (the paper's reported metric, Sec 7.1). *)
let loss_vs_ideal t ~response = max_gain t -. profit t ~response

let comp_bounds t = t.comp_bounds
let comp_gains t = t.comp_gains
let num_components t = Array.length t.comp_bounds

let decompose t =
  ( List.init (num_components t) (fun c ->
        { comp_bound = t.comp_bounds.(c); comp_gain = t.comp_gains.(c) }),
    t.gains.(Array.length t.bounds) )

(* The components a postponement by [tau] loses: those whose slack at
   [completion], [(arrival + bound) - completion], lies in [0, tau).
   Their gains are added to [acc] one at a time, in component order,
   so that a caller summing over a buffer adds in position order, then
   component order: the order of the naive unit scan. Inlined for the
   same reason as [profit]. *)
let[@inline] add_postpone_loss t ~arrival ~completion ~tau acc =
  let cb = t.comp_bounds and cg = t.comp_gains in
  let acc = ref acc in
  (* [cg] has [cb]'s length (set in [components_of]) *)
  for c = 0 to Array.length cb - 1 do
    let s = (arrival +. Array.unsafe_get cb c) -. completion in
    if s >= 0.0 && s < tau then acc := !acc +. Array.unsafe_get cg c
  done;
  !acc

(* One slack unit per component, written from index [at]: key
   [(arrival + bound) - completion] (the float operations of
   [Schedule.slack]) and the component's gain. *)
let[@inline] write_units t ~arrival ~completion ~keys ~unit_gains ~at =
  let cb = t.comp_bounds and cg = t.comp_gains in
  for c = 0 to Array.length cb - 1 do
    keys.(at + c) <- (arrival +. cb.(c)) -. completion;
    unit_gains.(at + c) <- cg.(c)
  done;
  at + Array.length cb

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
   level, and the last one weights the penalty slot. No local function,
   so that the integral inlines into a caller's loop and boxes
   nothing. *)
let[@inline] expected_profit_exp t ~elapsed ~rate =
  if rate <= 0.0 then invalid_arg "Sla.expected_profit_exp: rate must be > 0";
  let bounds = t.bounds and gains = t.gains in
  let n = Array.length bounds in
  let acc = ref 0.0 and p_above_prev = ref 1.0 in
  (* [gains] has [n + 1] slots (checked in [of_array]) *)
  for i = 0 to n - 1 do
    let d = Array.unsafe_get bounds i -. elapsed in
    let p_above_cur = if d <= 0.0 then 1.0 else exp (-.rate *. d) in
    acc := !acc +. (Array.unsafe_get gains i *. (!p_above_prev -. p_above_cur));
    p_above_prev := p_above_cur
  done;
  !acc +. (Array.unsafe_get gains n *. !p_above_prev)

let[@inline] expected_loss_exp t ~elapsed ~rate =
  max_gain t -. expected_profit_exp t ~elapsed ~rate

(* Every bound, every gain and the penalty compare equal (the gain
   arrays end in -penalty). *)
let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 (fun (x : float) y -> x = y) a b

let equal a b = same_floats a.bounds b.bounds && same_floats a.gains b.gains

let pp ppf t =
  let pp_level ppf { bound; gain } = Fmt.pf ppf "%g@%g" gain bound in
  Fmt.pf ppf "@[<h>SLA[%a; penalty=%g]@]"
    Fmt.(list ~sep:(any ", ") pp_level)
    (levels t) (penalty t)
