(* Tests for the online arrival/gain forecasters (EWMA, additive
   Holt–Winters) and the offline perfect-foresight oracle schedule. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* One cycle of a raised-cosine "diurnal" signal, [season] samples from
   low to high and back — the shape Bursty.diurnal drives through the
   controller. *)
let diurnal_sample ~season ~low ~high i =
  let pos = Float.of_int (i mod season) /. Float.of_int season in
  let x = 0.5 *. (1.0 -. Float.cos (2.0 *. Float.pi *. pos)) in
  low +. ((high -. low) *. x)

let square_sample ~season ~duty ~low ~high i =
  let pos = Float.of_int (i mod season) /. Float.of_int season in
  if pos < 1.0 -. duty then low else high

(* ------------------------------------------------------------------ *)
(* EWMA *)

let test_ewma_seeds_on_first_sample () =
  let f = Forecast.ewma ~alpha:0.3 () in
  check_float "empty predicts 0" 0.0 (Forecast.predict f ~horizon:1);
  check_bool "not ready before data" false (Forecast.ready f);
  Forecast.observe f 42.0;
  check_bool "ready after one sample" true (Forecast.ready f);
  check_float "first sample seeds the level" 42.0 (Forecast.predict f ~horizon:1);
  check_float "horizon-independent" 42.0 (Forecast.predict f ~horizon:7)

let test_ewma_converges_to_constant () =
  let f = Forecast.ewma ~alpha:0.4 () in
  Forecast.observe f 100.0;
  for _ = 1 to 60 do Forecast.observe f 10.0 done;
  let p = Forecast.predict f ~horizon:1 in
  check_bool (Printf.sprintf "converged (%.4f)" p) true (Float.abs (p -. 10.0) < 0.01)

let test_ewma_update_rule_exact () =
  let f = Forecast.ewma ~alpha:0.25 () in
  Forecast.observe f 8.0;
  Forecast.observe f 16.0;
  (* 8 + 0.25*(16-8) = 10 *)
  check_float "one smoothing step" 10.0 (Forecast.predict f ~horizon:1)

(* ------------------------------------------------------------------ *)
(* Holt–Winters *)

let test_hw_ready_after_one_season () =
  let season = 8 in
  let f = Forecast.holt_winters ~season () in
  for i = 0 to season - 2 do
    Forecast.observe f (Float.of_int i);
    check_bool "not ready mid-warmup" false (Forecast.ready f)
  done;
  Forecast.observe f 0.0;
  check_bool "ready after a full season" true (Forecast.ready f);
  check_int "n_obs" season (Forecast.n_obs f)

let test_hw_tracks_diurnal_signal () =
  (* After a few cycles the seasonal profile must predict the next
     cycle's shape well: mean absolute error across one full cycle of
     one-step-ahead forecasts under 10% of the signal's amplitude. *)
  let season = 24 and low = 5.0 and high = 50.0 in
  let f = Forecast.holt_winters ~season () in
  let n_train = 4 * season in
  for i = 0 to n_train - 1 do
    Forecast.observe f (diurnal_sample ~season ~low ~high i)
  done;
  let err = ref 0.0 in
  for i = n_train to n_train + season - 1 do
    let predicted = Forecast.predict f ~horizon:1 in
    let actual = diurnal_sample ~season ~low ~high i in
    err := !err +. Float.abs (predicted -. actual);
    Forecast.observe f actual
  done;
  let mae = !err /. Float.of_int season in
  check_bool
    (Printf.sprintf "diurnal one-step MAE %.3f below 10%% of amplitude" mae)
    true
    (mae < 0.1 *. (high -. low))

let test_hw_anticipates_square_edge () =
  (* The value of seasonality: standing just before the on-edge of a
     learned square wave, the multi-step forecast into the high phase
     must be near the high level — an EWMA fed the same history
     cannot see the step coming. *)
  let season = 20 and duty = 0.4 and low = 2.0 and high = 40.0 in
  let hw = Forecast.holt_winters ~season () in
  let ew = Forecast.ewma () in
  let edge = 3 * season + (season * 6 / 10) in
  (* stop one sample short of the third cycle's rising edge *)
  for i = 0 to edge - 1 do
    let y = square_sample ~season ~duty ~low ~high i in
    Forecast.observe hw y;
    Forecast.observe ew y
  done;
  let p_hw = Forecast.predict hw ~horizon:1 in
  let p_ew = Forecast.predict ew ~horizon:1 in
  check_bool
    (Printf.sprintf "HW sees the edge (%.2f)" p_hw)
    true
    (p_hw > 0.6 *. high);
  check_bool
    (Printf.sprintf "EWMA blind to the edge (%.2f)" p_ew)
    true
    (p_ew < 0.5 *. high)

let test_hw_converges_on_trend () =
  (* A pure linear ramp (no seasonality in the signal): the trend term
     must push multi-step forecasts ahead of the level. *)
  let season = 6 in
  let f = Forecast.holt_winters ~season () in
  for i = 0 to (8 * season) - 1 do
    Forecast.observe f (Float.of_int i)
  done;
  let p1 = Forecast.predict f ~horizon:1 in
  let p5 = Forecast.predict f ~horizon:5 in
  check_bool "forecast tracks ramp" true (Float.abs (p1 -. Float.of_int (8 * season)) < 4.0);
  check_bool "longer horizon extrapolates further" true (p5 > p1)

let test_forecast_deterministic () =
  let mk () =
    let f = Forecast.holt_winters ~season:12 () in
    for i = 0 to 99 do
      Forecast.observe f (diurnal_sample ~season:12 ~low:1.0 ~high:9.0 i)
    done;
    Forecast.predict f ~horizon:3
  in
  check_float "same feed, same forecast" (mk ()) (mk ())

(* ------------------------------------------------------------------ *)
(* Validation and specs *)

let raises f = match f () with exception Invalid_argument _ -> true | _ -> false

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_constructor_validation () =
  check_bool "ewma alpha 0" true (raises (fun () -> Forecast.ewma ~alpha:0.0 ()));
  check_bool "ewma alpha > 1" true (raises (fun () -> Forecast.ewma ~alpha:1.5 ()));
  check_bool "hw season 1" true
    (raises (fun () -> Forecast.holt_winters ~season:1 ()));
  check_bool "hw bad beta" true
    (raises (fun () -> Forecast.holt_winters ~beta:0.0 ~season:4 ()));
  check_bool "bad horizon" true
    (raises (fun () -> Forecast.predict (Forecast.ewma ()) ~horizon:0))

let test_of_spec () =
  let ok s = match Forecast.of_spec s with Ok f -> Forecast.name f | Error e -> e in
  check_bool "ewma" true (ok "ewma" = "ewma(0.40)");
  check_bool "ewma:0.2" true (ok "ewma:0.2" = "ewma(0.20)");
  check_bool "hw:24" true (ok "hw:24" = "hw(24)");
  check_bool "hw full" true (ok "hw:12:0.5:0.2:0.1" = "hw(12)");
  let bad s = Result.is_error (Forecast.of_spec s) in
  check_bool "garbage" true (bad "arima");
  check_bool "bad alpha" true (bad "ewma:2.0");
  check_bool "bad season" true (bad "hw:1");
  check_bool "trailing junk" true (bad "hw:24:0.1")

(* A season past the cap is refused before anything is allocated, by
   the constructor and by the spec parser, which names the part and the
   cap. 100 001 is the first season past it. *)
let test_season_cap () =
  check_bool "hw season past the cap" true
    (raises (fun () -> Forecast.holt_winters ~season:100_001 ()));
  check_bool "hw season at the cap" false
    (raises (fun () -> Forecast.holt_winters ~season:100_000 ()));
  match Forecast.of_spec "hw:100001" with
  | Ok _ -> Alcotest.fail "hw:100001 accepted"
  | Error e ->
    let has sub =
      check_bool (Printf.sprintf "%S names %S" e sub) true
        (contains e sub)
    in
    has "season \"100001\"";
    has "cap of 100000"

(* Each spec error names the part that breaks its rule. *)
let test_of_spec_names_the_part () =
  List.iter
    (fun (spec, part) ->
      match Forecast.of_spec spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error e ->
        check_bool (Printf.sprintf "%S names %S" e part) true
          (contains e part))
    [
      ("hw:abc", "season \"abc\" is not an integer");
      ("hw:1", "season \"1\" must be >= 2");
      ("ewma:2.0", "alpha \"2.0\" must be in (0, 1]");
      ("hw:24:0.5:x:0.1", "beta \"x\" is not a number");
      ("hw:24:0.5:0.2:0", "gamma \"0\" must be in (0, 1]");
    ]

(* ------------------------------------------------------------------ *)
(* Oracle *)

let sla = Sla.single_step ~bound:50.0 ~gain:1.0

let mk_query id arrival size =
  Query.make ~id ~arrival ~size ~sla ()

let test_oracle_targets_follow_work () =
  (* 10 ms windows; window 0 holds 35 ms of work, window 2 holds 5 ms.
     With rho = 1 that needs 4 servers then 1, clamped to [1..8]. *)
  let queries =
    [|
      mk_query 0 1.0 20.0; mk_query 1 2.0 15.0;  (* window 0: 35 ms *)
      mk_query 2 25.0 5.0;  (* window 2: 5 ms *)
    |]
  in
  let s =
    Forecast.Oracle.schedule ~queries ~interval:10.0 ~lead:0.0 ~rho:1.0
      ~min_servers:1 ~max_servers:8 ()
  in
  (* lead 0 still covers [now, now + interval]: at t=0 both windows 0
     and 1 are reachable; window 0 dominates. *)
  check_int "peak window" 4 (Forecast.Oracle.target s ~now:0.0);
  check_int "after the peak" 1 (Forecast.Oracle.target s ~now:30.0)

let test_oracle_lead_pulls_demand_forward () =
  (* One 80 ms burst landing in window 4 ([40,50)). With lead = 20 ms
     the target must rise two windows early. *)
  let queries = [| mk_query 0 45.0 80.0 |] in
  let mk lead =
    Forecast.Oracle.schedule ~queries ~interval:10.0 ~lead ~rho:1.0
      ~min_servers:1 ~max_servers:16 ()
  in
  let s0 = mk 0.0 and s2 = mk 20.0 in
  check_int "no lead: quiet at t=20" 1 (Forecast.Oracle.target s0 ~now:20.0);
  check_int "20ms lead: rises at t=20" 8 (Forecast.Oracle.target s2 ~now:20.0);
  check_int "both high in the window" 8 (Forecast.Oracle.target s0 ~now:40.0)

let test_oracle_clamps_and_decays () =
  let queries = [| mk_query 0 5.0 500.0 |] in
  let s =
    Forecast.Oracle.schedule ~queries ~interval:10.0 ~lead:0.0 ~rho:0.5
      ~min_servers:2 ~max_servers:6 ()
  in
  check_int "clamped to max" 6 (Forecast.Oracle.target s ~now:0.0);
  check_int "decays to min after the trace" 2 (Forecast.Oracle.target s ~now:1000.0)

let test_oracle_validation () =
  let q = [| mk_query 0 0.0 1.0 |] in
  let mk ?(interval = 10.0) ?(lead = 0.0) ?(rho = 1.0) ?(min_servers = 1)
      ?(max_servers = 4) () =
    Forecast.Oracle.schedule ~queries:q ~interval ~lead ~rho ~min_servers
      ~max_servers ()
  in
  check_bool "bad interval" true (raises (fun () -> mk ~interval:0.0 ()));
  check_bool "bad lead" true (raises (fun () -> mk ~lead:(-1.0) ()));
  check_bool "bad rho" true (raises (fun () -> mk ~rho:0.0 ()));
  check_bool "bad bounds" true (raises (fun () -> mk ~min_servers:5 ()));
  check_bool "rho grid sane" true
    (Array.for_all (fun r -> r > 0.0 && r <= 1.5) Forecast.Oracle.rho_candidates)

let () =
  Alcotest.run "forecast"
    [
      ( "ewma",
        [
          Alcotest.test_case "seeds on first sample" `Quick
            test_ewma_seeds_on_first_sample;
          Alcotest.test_case "converges to constant" `Quick
            test_ewma_converges_to_constant;
          Alcotest.test_case "update rule exact" `Quick test_ewma_update_rule_exact;
        ] );
      ( "holt-winters",
        [
          Alcotest.test_case "ready after one season" `Quick
            test_hw_ready_after_one_season;
          Alcotest.test_case "tracks diurnal signal" `Quick
            test_hw_tracks_diurnal_signal;
          Alcotest.test_case "anticipates square edge" `Quick
            test_hw_anticipates_square_edge;
          Alcotest.test_case "converges on trend" `Quick test_hw_converges_on_trend;
          Alcotest.test_case "deterministic" `Quick test_forecast_deterministic;
        ] );
      ( "specs",
        [
          Alcotest.test_case "constructor validation" `Quick
            test_constructor_validation;
          Alcotest.test_case "of_spec" `Quick test_of_spec;
          Alcotest.test_case "season cap" `Quick test_season_cap;
          Alcotest.test_case "of_spec names the part" `Quick
            test_of_spec_names_the_part;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "targets follow work" `Quick
            test_oracle_targets_follow_work;
          Alcotest.test_case "lead pulls demand forward" `Quick
            test_oracle_lead_pulls_demand_forward;
          Alcotest.test_case "clamps and decays" `Quick test_oracle_clamps_and_decays;
          Alcotest.test_case "validation" `Quick test_oracle_validation;
        ] );
    ]
