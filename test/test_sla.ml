(* Tests for the SLA model: stepwise profit, validation, the g/0
   decomposition (paper Sec 4.2), the Fig 16 profiles and the CBS
   expected-loss integral. *)

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let general_sla =
  (* Fig 3a: g1 until t1, g2 until t2, then penalty p. *)
  Sla.make
    ~levels:[ { bound = 10.0; gain = 5.0 }; { bound = 20.0; gain = 2.0 } ]
    ~penalty:3.0

(* ------------------------------------------------------------------ *)
(* Construction and validation *)

let test_make_valid () =
  check_int "levels" 2 (Sla.num_levels general_sla);
  check_float "penalty" 3.0 (Sla.penalty general_sla);
  check_float "max gain" 5.0 (Sla.max_gain general_sla);
  check_float "first deadline" 10.0 (Sla.first_deadline general_sla);
  check_float "last deadline" 20.0 (Sla.last_deadline general_sla)

let expect_invalid f =
  match f () with
  | exception Sla.Invalid _ -> ()
  | _ -> Alcotest.fail "expected Sla.Invalid"

let test_make_empty_levels () = expect_invalid (fun () -> Sla.make ~levels:[] ~penalty:0.0)

let test_make_negative_penalty () =
  expect_invalid (fun () ->
      Sla.make ~levels:[ { bound = 1.0; gain = 1.0 } ] ~penalty:(-1.0))

let test_make_nonincreasing_bounds () =
  expect_invalid (fun () ->
      Sla.make
        ~levels:[ { bound = 2.0; gain = 2.0 }; { bound = 2.0; gain = 1.0 } ]
        ~penalty:0.0)

let test_make_nondecreasing_gains () =
  expect_invalid (fun () ->
      Sla.make
        ~levels:[ { bound = 1.0; gain = 1.0 }; { bound = 2.0; gain = 1.0 } ]
        ~penalty:0.0)

let test_make_gain_below_neg_penalty () =
  expect_invalid (fun () ->
      Sla.make ~levels:[ { bound = 1.0; gain = -2.0 } ] ~penalty:1.0)

let test_make_nonpositive_bound () =
  expect_invalid (fun () -> Sla.make ~levels:[ { bound = 0.0; gain = 1.0 } ] ~penalty:0.0)

let test_make_negative_gain_ok_with_penalty () =
  (* A level gain may be negative as long as it stays >= -penalty. *)
  let sla = Sla.make ~levels:[ { bound = 1.0; gain = -0.5 } ] ~penalty:1.0 in
  check_float "profit on time" (-0.5) (Sla.profit sla ~response:0.5)

(* ------------------------------------------------------------------ *)
(* Profit evaluation *)

let test_profit_steps () =
  check_float "fastest" 5.0 (Sla.profit general_sla ~response:0.0);
  check_float "inside level 1" 5.0 (Sla.profit general_sla ~response:9.99);
  check_float "boundary inclusive t1" 5.0 (Sla.profit general_sla ~response:10.0);
  check_float "inside level 2" 2.0 (Sla.profit general_sla ~response:10.01);
  check_float "boundary inclusive t2" 2.0 (Sla.profit general_sla ~response:20.0);
  check_float "after everything" (-3.0) (Sla.profit general_sla ~response:20.01)

(* Each level's bound is inclusive and the next float past it is not;
   a NaN response meets no bound and earns the penalty. The loop's
   test must stay [response <= bound]: walking on [response > bound]
   would stop at the first level for NaN. *)
let test_profit_bound_edges () =
  let sla =
    Sla.make
      ~levels:
        [
          { bound = 0.1; gain = 4.0 };
          { bound = 7.3; gain = 1.5 };
          { bound = 20.0; gain = -0.25 };
        ]
      ~penalty:2.0
  in
  let exactly what want got =
    Alcotest.(check int64) what (Int64.bits_of_float want)
      (Int64.bits_of_float got)
  in
  exactly "NaN earns the penalty" (-2.0) (Sla.profit sla ~response:Float.nan);
  let after = [| 1.5; -0.25; -2.0 |] in
  List.iteri
    (fun k { Sla.bound; gain } ->
      exactly (Printf.sprintf "at bound %d" k) gain
        (Sla.profit sla ~response:bound);
      exactly
        (Printf.sprintf "just past bound %d" k)
        after.(k)
        (Sla.profit sla ~response:(Float.succ bound)))
    (Sla.levels sla)

let test_one_zero () =
  let sla = Sla.one_zero ~bound:4.0 in
  check_float "on time" 1.0 (Sla.profit sla ~response:4.0);
  check_float "late" 0.0 (Sla.profit sla ~response:4.5)

let test_single_step () =
  let sla = Sla.single_step ~bound:2.0 ~gain:7.5 in
  check_float "gain" 7.5 (Sla.profit sla ~response:1.0);
  check_float "zero after" 0.0 (Sla.profit sla ~response:3.0)

let test_loss_vs_ideal () =
  check_float "on time no loss" 0.0 (Sla.loss_vs_ideal general_sla ~response:5.0);
  check_float "level 2 loss" 3.0 (Sla.loss_vs_ideal general_sla ~response:15.0);
  check_float "penalty loss" 8.0 (Sla.loss_vs_ideal general_sla ~response:25.0)

(* ------------------------------------------------------------------ *)
(* Decomposition *)

let test_decompose_general () =
  let comps, offset = Sla.decompose general_sla in
  check_float "offset is -penalty" (-3.0) offset;
  check_int "two components" 2 (List.length comps);
  (* Inner component: g1 - g2 = 3 at bound 10; outer: g2 + p = 5 at 20. *)
  match comps with
  | [ c1; c2 ] ->
    check_float "c1 bound" 10.0 c1.Sla.comp_bound;
    check_float "c1 gain" 3.0 c1.comp_gain;
    check_float "c2 bound" 20.0 c2.comp_bound;
    check_float "c2 gain" 5.0 c2.comp_gain
  | _ -> Alcotest.fail "unexpected component count"

let test_decompose_roundtrip_samples () =
  let d = Sla.decompose general_sla in
  List.iter
    (fun r ->
      check_float
        (Printf.sprintf "response %g" r)
        (Sla.profit general_sla ~response:r)
        (Sla.profit_of_decomposition d ~response:r))
    [ 0.0; 5.0; 10.0; 10.5; 15.0; 20.0; 25.0; 1000.0 ]

let test_decompose_drops_zero_steps () =
  (* gain exactly -penalty at the last level: outer component is 0. *)
  let sla =
    Sla.make ~levels:[ { bound = 1.0; gain = 1.0 }; { bound = 2.0; gain = -1.0 } ]
      ~penalty:1.0
  in
  let comps, _ = Sla.decompose sla in
  check_int "only one live component" 1 (List.length comps);
  List.iter (fun c -> check_bool "positive gain" true (c.Sla.comp_gain > 0.0)) comps

let arbitrary_sla =
  (* Random stepwise SLA: up to 4 levels with increasing bounds and
     decreasing gains, random non-negative penalty. *)
  let open QCheck in
  let gen =
    Gen.(
      let* n = 1 -- 4 in
      let* raw_bounds = list_repeat n (float_range 0.1 100.0) in
      let* raw_gains = list_repeat n (float_range 0.1 10.0) in
      let* penalty = float_range 0.0 5.0 in
      let bounds = List.sort_uniq Float.compare raw_bounds in
      let gains =
        List.sort_uniq Float.compare raw_gains |> List.rev
      in
      let k = min (List.length bounds) (List.length gains) in
      let levels =
        List.init k (fun i ->
            { Sla.bound = List.nth bounds i; gain = List.nth gains i })
      in
      Gen.return (Sla.make ~levels ~penalty))
  in
  make ~print:(Fmt.to_to_string Sla.pp) gen

let prop_decompose_roundtrip =
  QCheck.Test.make ~name:"decomposition reproduces profit everywhere" ~count:300
    QCheck.(pair arbitrary_sla (float_range 0.0 200.0))
    (fun (sla, r) ->
      let d = Sla.decompose sla in
      let a = Sla.profit sla ~response:r in
      let b = Sla.profit_of_decomposition d ~response:r in
      Float.abs (a -. b) < 1e-9)

let prop_profit_nonincreasing =
  QCheck.Test.make ~name:"profit is non-increasing in response time" ~count:300
    QCheck.(triple arbitrary_sla (float_range 0.0 200.0) (float_range 0.0 50.0))
    (fun (sla, r, dr) ->
      Sla.profit sla ~response:r >= Sla.profit sla ~response:(r +. dr) -. 1e-12)

let prop_components_positive =
  QCheck.Test.make ~name:"decomposition components have positive gain" ~count:300
    arbitrary_sla
    (fun sla ->
      let comps, _ = Sla.decompose sla in
      List.for_all (fun c -> c.Sla.comp_gain > 0.0) comps)

(* ------------------------------------------------------------------ *)
(* Expected loss under exponential extra wait (CBS integral) *)

let numeric_expected_profit sla ~elapsed ~rate =
  (* Riemann sum over the exponential density. *)
  let dx = 0.001 and xmax = 40.0 /. rate in
  let acc = ref 0.0 in
  let x = ref (dx /. 2.0) in
  while !x < xmax do
    let density = rate *. exp (-.rate *. !x) in
    acc := !acc +. (density *. Sla.profit sla ~response:(elapsed +. !x) *. dx);
    x := !x +. dx
  done;
  !acc

let test_expected_profit_matches_numeric () =
  List.iter
    (fun (elapsed, rate) ->
      let closed = Sla.expected_profit_exp general_sla ~elapsed ~rate in
      let numeric = numeric_expected_profit general_sla ~elapsed ~rate in
      check_bool
        (Printf.sprintf "elapsed=%g rate=%g" elapsed rate)
        true
        (Float.abs (closed -. numeric) < 0.02))
    [ (0.0, 0.1); (5.0, 0.1); (15.0, 0.2); (25.0, 0.05); (0.0, 1.0) ]

let test_expected_profit_limits () =
  (* Already far past the last deadline: expectation is the penalty. *)
  let v = Sla.expected_profit_exp general_sla ~elapsed:100.0 ~rate:0.1 in
  check_float "stuck at penalty" (-3.0) v

let test_expected_loss_positive_when_late_risk () =
  let loss = Sla.expected_loss_exp general_sla ~elapsed:9.0 ~rate:0.1 in
  check_bool "some risk of losing level 1" true (loss > 0.0)

let prop_expected_profit_bounded =
  QCheck.Test.make ~name:"expected profit within [min, max] profit" ~count:300
    QCheck.(triple arbitrary_sla (float_range 0.0 100.0) (float_range 0.01 2.0))
    (fun (sla, elapsed, rate) ->
      let v = Sla.expected_profit_exp sla ~elapsed ~rate in
      v <= Sla.max_gain sla +. 1e-9 && v >= -.Sla.penalty sla -. 1e-9)

(* The integral as it was first written, evaluating every level's
   lower survival term again for the next level and the last one again
   for the penalty. Kept only here, as the oracle the one-evaluation
   body must match bit for bit. *)
let expected_profit_two_evaluations sla ~elapsed ~rate =
  let levels = Array.of_list (Sla.levels sla) in
  let surv bound =
    let d = bound -. elapsed in
    if d <= 0.0 then 1.0 else exp (-.rate *. d)
  in
  let n = Array.length levels in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let p_above_prev = if i = 0 then 1.0 else surv levels.(i - 1).Sla.bound in
    let p_above_cur = surv levels.(i).Sla.bound in
    acc := !acc +. (levels.(i).Sla.gain *. (p_above_prev -. p_above_cur))
  done;
  !acc +. (-.Sla.penalty sla *. surv levels.(n - 1).Sla.bound)

(* SLAs of 1-5 levels with positive, strictly decreasing gains and a
   penalty of 0 or a positive one; [elapsed] before the first bound,
   on or between bounds, or past the last; rates log-uniform over
   0.01-10. *)
let prop_expected_profit_bits =
  QCheck.Test.make ~name:"expected profit == two-evaluation integral, bit for bit"
    ~count:1000
    QCheck.(pair (int_range 1 5) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let rng = Prng.create seed in
      let bounds = Array.make k 0.0 and gains = Array.make k 0.0 in
      let b = ref 0.0 and g = ref (0.5 +. (Prng.float rng *. 10.0)) in
      for i = 0 to k - 1 do
        b := !b +. 0.5 +. (Prng.float rng *. 30.0);
        bounds.(i) <- !b;
        gains.(i) <- !g;
        g := !g *. (0.1 +. (0.8 *. Prng.float rng))
      done;
      let penalty = if Prng.bool rng then 0.0 else 0.1 +. (Prng.float rng *. 5.0) in
      let sla =
        Sla.make
          ~levels:(List.init k (fun i -> { Sla.bound = bounds.(i); gain = gains.(i) }))
          ~penalty
      in
      let elapsed =
        match Prng.int rng 4 with
        | 0 -> Prng.float rng *. bounds.(0)
        | 1 -> bounds.(Prng.int rng k)
        | 2 ->
          let j = Prng.int rng k in
          let lo = if j = 0 then 0.0 else bounds.(j - 1) in
          lo +. (Prng.float rng *. (bounds.(j) -. lo))
        | _ -> bounds.(k - 1) +. (Prng.float rng *. 50.0)
      in
      let rate = 0.01 *. (1000.0 ** Prng.float rng) in
      let got = Sla.expected_profit_exp sla ~elapsed ~rate
      and want = expected_profit_two_evaluations sla ~elapsed ~rate in
      Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
      || QCheck.Test.fail_reportf "%a elapsed %h rate %h: %h, oracle %h" Sla.pp
           sla elapsed rate got want)

(* ------------------------------------------------------------------ *)
(* The flat staircase against a level-record walk *)

(* The staircase as an array of level records and a penalty, read the
   way [Sla] read it before it was stored flat: the reference the float
   arrays must match bit for bit. *)
let ref_profit levels penalty ~response =
  let n = Array.length levels in
  let i = ref 0 in
  while !i < n && not (response <= levels.(!i).Sla.bound) do
    incr i
  done;
  if !i < n then levels.(!i).Sla.gain else -.penalty

let ref_components levels penalty =
  let n = Array.length levels in
  List.filter_map
    (fun i ->
      let next = if i = n - 1 then -.penalty else levels.(i + 1).Sla.gain in
      let g = levels.(i).Sla.gain -. next in
      if g > 0.0 then Some (levels.(i).Sla.bound, g) else None)
    (List.init n Fun.id)

let ref_expected levels penalty ~elapsed ~rate =
  let acc = ref 0.0 and p_above_prev = ref 1.0 in
  Array.iter
    (fun { Sla.bound; gain } ->
      let d = bound -. elapsed in
      let p_above_cur = if d <= 0.0 then 1.0 else exp (-.rate *. d) in
      acc := !acc +. (gain *. (!p_above_prev -. p_above_cur));
      p_above_prev := p_above_cur)
    levels;
  !acc +. (-.penalty *. !p_above_prev)

(* A valid staircase of one level (a third of the draws) or 2-6, with
   penalty 0 (a third of the draws) or positive, and in a quarter of
   the draws a last gain of exactly -penalty: a zero-gain step that
   the components drop. *)
let staircase rng =
  let k = if Prng.int rng 3 = 0 then 1 else 2 + Prng.int rng 5 in
  let penalty = if Prng.int rng 3 = 0 then 0.0 else 0.1 +. (Prng.float rng *. 5.0) in
  let b = ref 0.0 and g = ref (0.5 +. (Prng.float rng *. 10.0)) in
  (* k - 1 drops of at most (top + penalty) / k each keep the last gain
     above -penalty. *)
  let drop = (!g +. penalty) /. Float.of_int k in
  let levels =
    Array.init k (fun _ ->
        b := !b +. 0.5 +. (Prng.float rng *. 30.0);
        let l = { Sla.bound = !b; gain = !g } in
        g := !g -. (drop *. (0.2 +. (0.8 *. Prng.float rng)));
        l)
  in
  if Prng.int rng 4 = 0 then
    levels.(k - 1) <- { (levels.(k - 1)) with gain = -.penalty };
  (levels, penalty)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_flat_matches_levels =
  QCheck.Test.make ~name:"flat staircase == level-record walk, bit for bit"
    ~count:1000 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let levels, penalty = staircase rng in
      let sla = Sla.make ~levels:(Array.to_list levels) ~penalty in
      let fail fmt = QCheck.Test.fail_reportf ("%a: " ^^ fmt) Sla.pp sla in
      let points =
        Float.nan
        :: List.concat_map
             (fun { Sla.bound; _ } -> [ bound; Float.succ bound ])
             (Array.to_list levels)
      in
      List.iter
        (fun r ->
          let got = Sla.profit sla ~response:r
          and want = ref_profit levels penalty ~response:r in
          if not (same_bits got want) then fail "profit at %h: %h, walk %h" r got want;
          let rate = 0.01 *. (1000.0 ** Prng.float rng) in
          let got = Sla.expected_profit_exp sla ~elapsed:r ~rate
          and want = ref_expected levels penalty ~elapsed:r ~rate in
          if not (same_bits got want) then
            fail "expected profit at %h, rate %h: %h, walk %h" r rate got want)
        points;
      let comps = ref_components levels penalty in
      let pairs a b = List.combine (Array.to_list a) (Array.to_list b) in
      let same_comps got =
        List.length got = List.length comps
        && List.for_all2
             (fun (b, g) (b', g') -> same_bits b b' && same_bits g g')
             got comps
      in
      if not (same_comps (pairs (Sla.comp_bounds sla) (Sla.comp_gains sla))) then
        fail "comp_bounds/comp_gains differ from the walk's components";
      let dcomps, offset = Sla.decompose sla in
      if
        not
          (same_comps (List.map (fun c -> (c.Sla.comp_bound, c.Sla.comp_gain)) dcomps))
      then fail "decompose differs from the walk's components";
      if not (same_bits offset (-.penalty)) then fail "offset %h" offset;
      if not (same_bits (Sla.penalty sla) penalty) then
        fail "penalty %h, want %h" (Sla.penalty sla) penalty;
      true)

(* [make] over a list of levels and [of_array] over the same floats
   accept and refuse the same inputs, with the same message. Each draw
   breaks a valid staircase in one way, or leaves it valid. *)
let prop_of_array_refuses_as_make =
  QCheck.Test.make ~name:"of_array refuses what make refuses, same message"
    ~count:1000 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let levels, penalty = staircase rng in
      let k = Array.length levels in
      let i = Prng.int rng k in
      let set f = levels.(i) <- f levels.(i) in
      let bad () =
        match Prng.int rng 4 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> Float.neg_infinity
        | _ -> -.Prng.float rng
      in
      let levels, penalty =
        match Prng.int rng 9 with
        | 0 -> ([||], penalty)
        | 1 -> (levels, bad ())
        | 2 ->
          set (fun l -> { l with Sla.bound = bad () });
          (levels, penalty)
        | 3 ->
          set (fun l -> { l with Sla.gain = bad () });
          (levels, penalty)
        | 4 ->
          set (fun l -> { l with Sla.bound = 0.0 });
          (levels, penalty)
        | 5 when k > 1 ->
          levels.(i) <- { (levels.(i)) with bound = levels.((i + 1) mod k).bound };
          (levels, penalty)
        | 6 when k > 1 ->
          levels.(i) <- { (levels.(i)) with gain = levels.((i + 1) mod k).gain };
          (levels, penalty)
        | 7 ->
          levels.(k - 1) <- { (levels.(k - 1)) with gain = -.penalty -. 1.0 };
          (levels, penalty)
        | _ -> (levels, penalty)
      in
      let outcome f = match f () with sla -> Ok sla | exception Sla.Invalid m -> Error m in
      let made = outcome (fun () -> Sla.make ~levels:(Array.to_list levels) ~penalty) in
      let flat =
        outcome (fun () ->
            let n = Array.length levels in
            let gains = Array.make (n + 1) 0.0 in
            Array.iteri (fun j l -> gains.(j) <- l.Sla.gain) levels;
            Sla.of_array ~bounds:(Array.map (fun l -> l.Sla.bound) levels) ~gains
              ~penalty)
      in
      match (made, flat) with
      | Error a, Error b -> a = b || QCheck.Test.fail_reportf "make %S, of_array %S" a b
      | Ok a, Ok b -> Sla.equal a b
      | Ok _, Error m -> QCheck.Test.fail_reportf "only of_array refuses: %S" m
      | Error m, Ok _ -> QCheck.Test.fail_reportf "only make refuses: %S" m)

(* ------------------------------------------------------------------ *)
(* Profiles (Fig 16) *)

let test_sla_a_shape () =
  let sla = Sla_profiles.sla_a ~mu:20.0 in
  check_float "gain 1 within 2mu" 1.0 (Sla.profit sla ~response:40.0);
  check_float "0 after" 0.0 (Sla.profit sla ~response:40.01);
  check_float "no penalty" 0.0 (Sla.penalty sla)

let test_sla_b_customer_shape () =
  let sla = Sla_profiles.sla_b_customer ~mu:20.0 in
  check_float "2 within mu" 2.0 (Sla.profit sla ~response:20.0);
  check_float "1 within 5mu" 1.0 (Sla.profit sla ~response:100.0);
  check_float "0 after" 0.0 (Sla.profit sla ~response:100.01)

let test_sla_b_employee_shape () =
  let sla = Sla_profiles.sla_b_employee ~mu:20.0 in
  check_float "1 within 10mu" 1.0 (Sla.profit sla ~response:200.0);
  check_float "-10 after" (-10.0) (Sla.profit sla ~response:200.01)

(* ------------------------------------------------------------------ *)
(* Query *)

let test_query_basics () =
  let sla = Sla.one_zero ~bound:10.0 in
  let q = Query.make ~id:3 ~arrival:5.0 ~size:2.0 ~sla () in
  check_float "est defaults to size" 2.0 q.Query.est_size;
  check_float "deadline" 15.0 (Query.first_deadline q);
  check_float "profit on time" 1.0 (Query.profit_at q ~completion:15.0);
  check_float "profit late" 0.0 (Query.profit_at q ~completion:15.5);
  check_float "loss late" 1.0 (Query.loss_at q ~completion:15.5);
  check_float "ideal" 1.0 (Query.ideal_profit q)

let test_query_est_size () =
  let sla = Sla.one_zero ~bound:10.0 in
  let q = Query.make ~est_size:3.0 ~id:0 ~arrival:0.0 ~size:6.0 ~sla () in
  check_float "est kept" 3.0 q.Query.est_size;
  check_float "actual kept" 6.0 q.Query.size

let test_sla_equal_and_pp () =
  let a = Sla.one_zero ~bound:5.0 in
  let b = Sla.one_zero ~bound:5.0 in
  let c = Sla.one_zero ~bound:6.0 in
  let d = Sla.single_step ~bound:5.0 ~gain:2.0 in
  check_bool "equal" true (Sla.equal a b);
  check_bool "different bound" false (Sla.equal a c);
  check_bool "different gain" false (Sla.equal a d);
  check_bool "different penalty" false
    (Sla.equal a (Sla.make ~levels:[ { bound = 5.0; gain = 1.0 } ] ~penalty:1.0));
  check_bool "different arity" false (Sla.equal a general_sla);
  let s = Fmt.str "%a" Sla.pp general_sla in
  check_bool "pp mentions penalty" true (String.length s > 10);
  let qs = Fmt.str "%a" Query.pp (Query.make ~id:1 ~arrival:0.0 ~size:2.0 ~sla:a ()) in
  check_bool "query pp" true (String.length qs > 10)

let test_query_invalid () =
  let sla = Sla.one_zero ~bound:1.0 in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Query.make: size must be non-negative") (fun () ->
      ignore (Query.make ~id:0 ~arrival:0.0 ~size:(-1.0) ~sla ()))

let test_non_finite_rejected () =
  (* NaN or an infinity in any time field, or in the penalty, would
     poison every profit computed from it (a NaN clock, a -inf profit);
     the constructors refuse them so nothing decoded from the wire or a
     file can carry one in. *)
  let sla = Sla.one_zero ~bound:1.0 in
  let bad = [ Float.nan; Float.infinity; Float.neg_infinity ] in
  List.iter
    (fun x ->
      let raises label f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s = %h accepted" label x
      in
      raises "arrival" (fun () ->
          Query.make ~id:0 ~arrival:x ~size:1.0 ~sla ());
      raises "size" (fun () -> Query.make ~id:0 ~arrival:0.0 ~size:x ~sla ());
      raises "est_size" (fun () ->
          Query.make ~est_size:x ~id:0 ~arrival:0.0 ~size:1.0 ~sla ());
      expect_invalid (fun () ->
          Sla.make ~levels:[ { Sla.bound = 1.0; gain = 1.0 } ] ~penalty:x))
    bad

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sla"
    [
      ( "make",
        [
          Alcotest.test_case "valid" `Quick test_make_valid;
          Alcotest.test_case "empty levels" `Quick test_make_empty_levels;
          Alcotest.test_case "negative penalty" `Quick test_make_negative_penalty;
          Alcotest.test_case "non-increasing bounds" `Quick test_make_nonincreasing_bounds;
          Alcotest.test_case "non-decreasing gains" `Quick test_make_nondecreasing_gains;
          Alcotest.test_case "gain below -penalty" `Quick test_make_gain_below_neg_penalty;
          Alcotest.test_case "non-positive bound" `Quick test_make_nonpositive_bound;
          Alcotest.test_case "negative gain with penalty" `Quick
            test_make_negative_gain_ok_with_penalty;
        ] );
      ( "profit",
        [
          Alcotest.test_case "steps" `Quick test_profit_steps;
          Alcotest.test_case "bound edges and NaN" `Quick test_profit_bound_edges;
          Alcotest.test_case "1/0" `Quick test_one_zero;
          Alcotest.test_case "g/0" `Quick test_single_step;
          Alcotest.test_case "loss vs ideal" `Quick test_loss_vs_ideal;
          qtest prop_profit_nonincreasing;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "general example" `Quick test_decompose_general;
          Alcotest.test_case "roundtrip samples" `Quick test_decompose_roundtrip_samples;
          Alcotest.test_case "drops zero steps" `Quick test_decompose_drops_zero_steps;
          qtest prop_decompose_roundtrip;
          qtest prop_components_positive;
        ] );
      ( "expected",
        [
          Alcotest.test_case "matches numeric integral" `Slow
            test_expected_profit_matches_numeric;
          Alcotest.test_case "limit past last deadline" `Quick test_expected_profit_limits;
          Alcotest.test_case "positive loss under risk" `Quick
            test_expected_loss_positive_when_late_risk;
          qtest prop_expected_profit_bounded;
          qtest prop_expected_profit_bits;
        ] );
      ( "flat",
        [ qtest prop_flat_matches_levels; qtest prop_of_array_refuses_as_make ] );
      ( "profiles",
        [
          Alcotest.test_case "SLA-A" `Quick test_sla_a_shape;
          Alcotest.test_case "SLA-B customer" `Quick test_sla_b_customer_shape;
          Alcotest.test_case "SLA-B employee" `Quick test_sla_b_employee_shape;
        ] );
      ( "query",
        [
          Alcotest.test_case "basics" `Quick test_query_basics;
          Alcotest.test_case "est size" `Quick test_query_est_size;
          Alcotest.test_case "equal and pp" `Quick test_sla_equal_and_pp;
          Alcotest.test_case "invalid" `Quick test_query_invalid;
          Alcotest.test_case "non-finite fields rejected" `Quick
            test_non_finite_rejected;
        ] );
    ]
