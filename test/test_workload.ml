(* Tests for the workload substrate: service distributions, SSBM,
   SLA assignment, estimation error and trace generation. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Service distributions *)

let test_deterministic () =
  let d = Service_dist.deterministic 7.0 in
  let rng = Prng.create 1 in
  for _ = 1 to 10 do
    check_float "always 7" 7.0 (Service_dist.sample d rng)
  done;
  check_float "mean" 7.0 (Option.get (Service_dist.theoretical_mean d))

let test_uniform_bounds () =
  let d = Service_dist.uniform ~lo:2.0 ~hi:5.0 in
  let rng = Prng.create 2 in
  for _ = 1 to 1000 do
    let x = Service_dist.sample d rng in
    check_bool "in range" true (x >= 2.0 && x < 5.0)
  done;
  check_float "mean" 3.5 (Option.get (Service_dist.theoretical_mean d))

let test_exponential_mean () =
  let d = Service_dist.exponential ~mean:20.0 in
  let rng = Prng.create 3 in
  let m = Service_dist.empirical_mean d rng ~samples:100_000 in
  check_bool "empirical near 20" true (Float.abs (m -. 20.0) < 0.5);
  check_float "theoretical" 20.0 (Option.get (Service_dist.theoretical_mean d))

let test_pareto_support_and_mean () =
  let d = Service_dist.pareto ~x_min:1.0 ~alpha:1.0 () in
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    check_bool "above x_min" true (Service_dist.sample d rng >= 1.0)
  done;
  check_bool "alpha<=1 has no mean" true (Service_dist.theoretical_mean d = None);
  let d2 = Service_dist.pareto ~x_min:1.0 ~alpha:2.0 () in
  check_float "alpha=2 mean" 2.0 (Option.get (Service_dist.theoretical_mean d2))

let test_pareto_cap () =
  let d = Service_dist.pareto ~cap:100.0 ~x_min:1.0 ~alpha:1.0 () in
  let rng = Prng.create 5 in
  for _ = 1 to 10_000 do
    check_bool "capped" true (Service_dist.sample d rng <= 100.0)
  done

let test_empirical_sampling () =
  let d = Service_dist.empirical [| 1.0; 2.0; 3.0 |] in
  let rng = Prng.create 6 in
  let seen = Array.make 3 0 in
  for _ = 1 to 3000 do
    let x = Service_dist.sample d rng in
    check_bool "a known value" true (x = 1.0 || x = 2.0 || x = 3.0);
    seen.(int_of_float x - 1) <- seen.(int_of_float x - 1) + 1
  done;
  Array.iter (fun c -> check_bool "each value drawn" true (c > 800)) seen;
  check_float "mean" 2.0 (Option.get (Service_dist.theoretical_mean d))

let test_invalid_dists () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "neg deterministic" true (raises (fun () -> Service_dist.deterministic (-1.0)));
  check_bool "bad uniform" true (raises (fun () -> Service_dist.uniform ~lo:5.0 ~hi:2.0));
  check_bool "bad exp" true (raises (fun () -> Service_dist.exponential ~mean:0.0));
  check_bool "bad pareto" true
    (raises (fun () -> Service_dist.pareto ~x_min:0.0 ~alpha:1.0 ()));
  check_bool "cap below x_min" true
    (raises (fun () -> Service_dist.pareto ~cap:0.5 ~x_min:1.0 ~alpha:1.0 ()));
  check_bool "empty empirical" true (raises (fun () -> Service_dist.empirical [||]))

(* ------------------------------------------------------------------ *)
(* SSBM *)

let test_ssbm_table () =
  check_int "13 queries" 13 Ssbm.count;
  check_float "q3 is 0.2ms" 0.2 Ssbm.times_ms.(2);
  check_float "q11 is 29.2ms" 29.2 Ssbm.times_ms.(10);
  (* The paper reports an average of 10.2 ms. *)
  check_bool "average 10.2 ms" true (Float.abs (Ssbm.mean_time_ms -. 10.26) < 0.01)

let test_ssbm_sampling_uniform () =
  let rng = Prng.create 7 in
  let counts = Array.make Ssbm.count 0 in
  let n = 13_000 in
  for _ = 1 to n do
    let e = Ssbm.sample rng in
    let idx =
      match Array.to_list Ssbm.queries |> List.mapi (fun i q -> (i, q)) |> List.find_opt (fun (_, q) -> q == e) with
      | Some (i, _) -> i
      | None -> -1
    in
    check_bool "known entry" true (idx >= 0);
    counts.(idx) <- counts.(idx) + 1
  done;
  Array.iter (fun c -> check_bool "roughly uniform" true (c > 700 && c < 1300)) counts

(* ------------------------------------------------------------------ *)
(* Workloads and SLA assignment *)

let test_nominal_means () =
  check_float "Exp" 20.0 (Workloads.nominal_mean_ms Workloads.Exp);
  check_float "Pareto" 25.0 (Workloads.nominal_mean_ms Workloads.Pareto);
  check_bool "SSBM" true
    (Float.abs (Workloads.nominal_mean_ms Workloads.Ssbm_wl -. 10.26) < 0.01)

let test_sla_a_assignment () =
  let rng = Prng.create 8 in
  let sla = Workloads.assign_sla Workloads.Exp Workloads.Sla_a ~mu:20.0 ~size:5.0 rng in
  check_bool "is the 1/0 profile" true (Sla.equal sla (Sla_profiles.sla_a ~mu:20.0))

let test_sla_b_mixture_ratio () =
  let rng = Prng.create 9 in
  let mu = 20.0 in
  let customer = Sla_profiles.sla_b_customer ~mu in
  let n = 22_000 in
  let cust = ref 0 in
  for _ = 1 to n do
    let sla = Workloads.assign_sla Workloads.Exp Workloads.Sla_b ~mu ~size:5.0 rng in
    if Sla.equal sla customer then incr cust
  done;
  let frac = Float.of_int !cust /. Float.of_int n in
  (* 10:1 ratio -> ~0.909. *)
  check_bool "ratio near 10/11" true (Float.abs (frac -. (10.0 /. 11.0)) < 0.01)

let test_sla_b_ssbm_correlated () =
  let rng = Prng.create 10 in
  let mu = 10.26 in
  let short =
    Workloads.assign_sla Workloads.Ssbm_wl Workloads.Sla_b ~mu ~size:6.4 rng
  in
  let long =
    Workloads.assign_sla Workloads.Ssbm_wl Workloads.Sla_b ~mu ~size:29.2 rng
  in
  check_bool "short query -> buyer" true
    (Sla.equal short (Sla_profiles.sla_b_customer ~mu));
  check_bool "long query -> employee" true
    (Sla.equal long (Sla_profiles.sla_b_employee ~mu))

(* ------------------------------------------------------------------ *)
(* Estimation error *)

let test_error_none () =
  let rng = Prng.create 11 in
  check_bool "none" true (Estimate_error.is_none Estimate_error.none);
  check_float "factor 1" 1.0 (Estimate_error.draw_factor Estimate_error.none rng);
  check_float "identity" 3.0
    (Estimate_error.actual_of_estimate Estimate_error.none rng ~estimate:3.0)

let test_error_gaussian_moments () =
  let e = Estimate_error.gaussian ~sigma2:0.2 () in
  let rng = Prng.create 12 in
  let s = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add s (Estimate_error.draw_factor e rng)
  done;
  (* sigma = sqrt(0.2) ~ 0.447; clamping at 0.05 barely moves the mean. *)
  check_bool "mean near 1" true (Float.abs (Stats.mean s -. 1.0) < 0.02);
  check_bool "sd near sqrt(0.2)" true (Float.abs (Stats.stddev s -. sqrt 0.2) < 0.02)

let test_error_floor () =
  let e = Estimate_error.gaussian ~sigma2:1.0 () in
  let rng = Prng.create 13 in
  for _ = 1 to 10_000 do
    check_bool "factor >= floor" true (Estimate_error.draw_factor e rng >= 0.05)
  done

let test_error_invalid () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "neg sigma2" true
    (raises (fun () -> Estimate_error.gaussian ~sigma2:(-0.1) ()));
  check_bool "bad floor" true
    (raises (fun () -> Estimate_error.gaussian ~floor:0.0 ~sigma2:0.1 ()))

(* ------------------------------------------------------------------ *)
(* Traces *)

let base_cfg ?(error = Estimate_error.none) ?(kind = Workloads.Exp)
    ?(profile = Workloads.Sla_a) ?(load = 0.9) ?(servers = 1) ?(n = 2000)
    ?(seed = 123) () =
  Trace.config ~error ~kind ~profile ~load ~servers ~n_queries:n ~seed ()

let test_trace_deterministic () =
  let a = Trace.generate (base_cfg ()) in
  let b = Trace.generate (base_cfg ()) in
  check_int "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i q ->
      check_float "same arrival" q.Query.arrival b.(i).Query.arrival;
      check_float "same size" q.Query.size b.(i).Query.size)
    a

let test_trace_seed_changes_draws () =
  let a = Trace.generate (base_cfg ~seed:1 ()) in
  let b = Trace.generate (base_cfg ~seed:2 ()) in
  check_bool "different traces" true
    (Array.exists2 (fun x y -> x.Query.size <> y.Query.size) a b)

let test_trace_arrivals_sorted_and_ids () =
  let qs = Trace.generate (base_cfg ()) in
  Array.iteri
    (fun i q ->
      check_int "id is index" i q.Query.id;
      if i > 0 then
        check_bool "arrivals non-decreasing" true
          (q.Query.arrival >= qs.(i - 1).Query.arrival))
    qs

let test_trace_load_calibration () =
  (* Total estimated work ~= load * span of arrivals, for 1 server. *)
  let qs = Trace.generate (base_cfg ~n:20_000 ()) in
  let work = Array.fold_left (fun acc q -> acc +. q.Query.size) 0.0 qs in
  let span = qs.(Array.length qs - 1).Query.arrival in
  let rho = work /. span in
  check_bool "utilization near 0.9" true (Float.abs (rho -. 0.9) < 0.05)

let test_trace_load_calibration_pareto () =
  (* The heavy-tailed workload must also hit the target load: this is
     the empirical-mean calibration at work. *)
  let qs = Trace.generate (base_cfg ~kind:Workloads.Pareto ~n:20_000 ()) in
  let work = Array.fold_left (fun acc q -> acc +. q.Query.size) 0.0 qs in
  let span = qs.(Array.length qs - 1).Query.arrival in
  let rho = work /. span in
  check_bool "utilization near 0.9" true (Float.abs (rho -. 0.9) < 0.1)

let test_trace_error_decouples_est_and_actual () =
  let e = Estimate_error.gaussian ~sigma2:0.2 () in
  let qs = Trace.generate (base_cfg ~error:e ()) in
  let differs = Array.exists (fun q -> q.Query.size <> q.Query.est_size) qs in
  check_bool "sizes differ from estimates" true differs

let test_trace_error_paired_draws () =
  (* Changing only the error model must keep estimates and arrivals
     identical (paired comparison, Sec 7.5). *)
  let a = Trace.generate (base_cfg ()) in
  let b =
    Trace.generate (base_cfg ~error:(Estimate_error.gaussian ~sigma2:1.0 ()) ())
  in
  Array.iteri
    (fun i q ->
      check_float "same estimate" q.Query.est_size b.(i).Query.est_size)
    a

let test_trace_no_error_means_exact () =
  let qs = Trace.generate (base_cfg ()) in
  Array.iter (fun q -> check_float "est = actual" q.Query.size q.Query.est_size) qs

let test_trace_invalid () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "bad load" true (raises (fun () -> base_cfg ~load:0.0 ()));
  check_bool "bad servers" true (raises (fun () -> base_cfg ~servers:0 ()));
  check_bool "bad count" true (raises (fun () -> base_cfg ~n:0 ()))

let test_with_servers () =
  let cfg = base_cfg ~servers:2 () in
  let cfg5 = Trace.with_servers cfg 5 in
  check_int "servers changed" 5 cfg5.Trace.servers;
  check_int "rest unchanged" cfg.Trace.n_queries cfg5.Trace.n_queries

(* ------------------------------------------------------------------ *)
(* Trace IO *)

let test_trace_io_roundtrip_line () =
  let sla =
    Sla.make ~levels:[ { bound = 12.5; gain = 2.0 }; { bound = 60.0; gain = 0.5 } ]
      ~penalty:3.25
  in
  let q = Query.make ~id:7 ~arrival:1.5 ~size:9.75 ~est_size:8.5 ~sla () in
  let q' = Trace_io.query_of_string (Trace_io.string_of_query q) in
  check_int "id" q.Query.id q'.Query.id;
  check_float "arrival" q.Query.arrival q'.Query.arrival;
  check_float "size" q.Query.size q'.Query.size;
  check_float "est" q.Query.est_size q'.Query.est_size;
  check_bool "sla equal" true (Sla.equal q.Query.sla q'.Query.sla)

let test_trace_io_file_roundtrip () =
  let queries = Trace.generate (base_cfg ~n:300 ()) in
  let path = Filename.temp_file "slatree" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path queries;
      let loaded = Trace_io.load path in
      check_int "count" (Array.length queries) (Array.length loaded);
      Array.iteri
        (fun i q ->
          check_float "arrival exact" q.Query.arrival loaded.(i).Query.arrival;
          check_float "size exact" q.Query.size loaded.(i).Query.size;
          check_bool "sla equal" true (Sla.equal q.Query.sla loaded.(i).Query.sla))
        queries)

let test_trace_io_rejects_garbage () =
  let raises_parse f =
    match f () with exception Trace_io.Parse_error _ -> true | _ -> false
  in
  check_bool "bad line" true
    (raises_parse (fun () -> Trace_io.query_of_string "not,a,query"));
  check_bool "bad float" true
    (raises_parse (fun () -> Trace_io.query_of_string "1,x,2,3,0,5:1"));
  check_bool "bad level" true
    (raises_parse (fun () -> Trace_io.query_of_string "1,0,2,3,0,nope"));
  let path = Filename.temp_file "slatree" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "wrong header\n";
      close_out oc;
      check_bool "bad header" true (raises_parse (fun () -> Trace_io.load path)))

(* Hardened loading: NaN, negative times, backwards arrivals and
   malformed records must be rejected with a file:line position, not
   replayed into the simulator. *)
let load_lines lines =
  let path = Filename.temp_file "slatree" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      Trace_io.load path)

let header = "# slatree-trace v1"

let test_trace_io_rejects_invalid_values () =
  let rejected lines =
    match load_lines lines with
    | _ -> false
    | exception Trace_io.Parse_error _ -> true
  in
  check_bool "empty file" true (rejected []);
  (* Query.make's own arrival < 0.0 guard lets NaN through (NaN
     comparisons are all false) — the loader must reject it itself. *)
  check_bool "NaN arrival" true (rejected [ header; "0,nan,5,5,0,5:1" ]);
  check_bool "inf size" true (rejected [ header; "0,0,inf,5,0,5:1" ]);
  check_bool "negative arrival" true (rejected [ header; "0,-1,5,5,0,5:1" ]);
  check_bool "negative size" true (rejected [ header; "0,0,-5,5,0,5:1" ]);
  check_bool "bad SLA level" true (rejected [ header; "0,0,5,5,0,5" ]);
  check_bool "truncated record" true (rejected [ header; "0,0,5" ]);
  check_bool "backwards arrivals" true
    (rejected [ header; "0,10,5,5,0,5:1"; "1,3,5,5,0,5:1" ])

let test_trace_io_error_carries_position () =
  match load_lines [ header; "0,0,5,5,0,5:1"; "1,oops,5,5,0,5:1" ] with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Trace_io.Parse_error msg ->
    check_bool "position is line 3" true
      (let rec find i =
         i + 2 <= String.length msg
         && ((msg.[i] = ':' && msg.[i + 1] = '3' && msg.[i + 2] = ':') || find (i + 1))
       in
       find 0)

let test_trace_io_save_seq () =
  let queries = Trace.generate (base_cfg ~n:120 ()) in
  let path = Filename.temp_file "slatree" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let n = Trace_io.save_seq path (Array.to_seq queries) in
      check_int "count returned" 120 n;
      let eager = Filename.temp_file "slatree" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove eager)
        (fun () ->
          Trace_io.save eager queries;
          let read f =
            let ic = open_in f in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
          in
          check_bool "save_seq = save" true (read path = read eager)))

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace IO roundtrips random traces" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let queries =
        Trace.generate (base_cfg ~kind:Workloads.Pareto ~profile:Workloads.Sla_b ~n:50 ~seed ())
      in
      let lines = Array.map Trace_io.string_of_query queries in
      let back = Array.map Trace_io.query_of_string lines in
      Array.for_all2
        (fun a b ->
          a.Query.id = b.Query.id
          && a.Query.arrival = b.Query.arrival
          && a.Query.size = b.Query.size
          && a.Query.est_size = b.Query.est_size
          && Sla.equal a.Query.sla b.Query.sla)
        queries back)

(* ------------------------------------------------------------------ *)
(* Bursty/diurnal arrivals *)

let diurnal_phases ?(period = 2_000.0) () =
  Bursty.diurnal ~period ~low:0.2 ~high:2.0 ()

let test_bursty_deterministic () =
  let a = Bursty.generate (base_cfg ()) (diurnal_phases ()) in
  let b = Bursty.generate (base_cfg ()) (diurnal_phases ()) in
  check_int "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i q ->
      check_float "same arrival" q.Query.arrival b.(i).Query.arrival;
      check_float "same size" q.Query.size b.(i).Query.size;
      check_float "same est" q.Query.est_size b.(i).Query.est_size)
    a

let test_bursty_seed_sensitivity () =
  let a = Bursty.generate (base_cfg ~seed:1 ()) (diurnal_phases ()) in
  let b = Bursty.generate (base_cfg ~seed:2 ()) (diurnal_phases ()) in
  check_bool "different traces" true
    (Array.exists2 (fun x y -> x.Query.arrival <> y.Query.arrival) a b)

let test_bursty_well_formed () =
  let qs = Bursty.generate (base_cfg ()) (diurnal_phases ()) in
  Array.iteri
    (fun i q ->
      check_int "id is index" i q.Query.id;
      if i > 0 then
        check_bool "arrivals non-decreasing" true
          (q.Query.arrival >= qs.(i - 1).Query.arrival))
    qs

let test_bursty_schedule_shapes () =
  let d = Bursty.diurnal ~steps:8 ~period:800.0 ~low:0.5 ~high:1.5 () in
  check_int "eight steps" 8 (Array.length d);
  check_float "period preserved" 800.0 (Bursty.period d);
  (* Raised cosine: symmetric about the midpoint, mean (low+high)/2. *)
  Alcotest.(check (float 1e-6)) "mean rho" 1.0 (Bursty.mean_rho d);
  Array.iter
    (fun p ->
      check_bool "within band" true (p.Bursty.rho >= 0.5 && p.Bursty.rho <= 1.5))
    d;
  let s = Bursty.square ~period:100.0 ~duty:0.25 ~low:0.1 ~high:2.0 in
  check_float "square period" 100.0 (Bursty.period s);
  Alcotest.(check (float 1e-9))
    "square mean" ((0.75 *. 0.1) +. (0.25 *. 2.0)) (Bursty.mean_rho s)

let test_bursty_bursts_visible () =
  (* On/off schedule: the on-phase must be far denser in arrivals per
     ms than the off-phase. *)
  let period = 1_000.0 in
  let phases = Bursty.square ~period ~duty:0.5 ~low:0.25 ~high:4.0 in
  let qs = Bursty.generate (base_cfg ~n:4_000 ()) phases in
  let in_low = ref 0 and in_high = ref 0 in
  Array.iter
    (fun q ->
      let pos = Float.rem q.Query.arrival period in
      if pos < 0.5 *. period then incr in_low else incr in_high)
    qs;
  check_bool
    (Printf.sprintf "on-phase dense (%d low vs %d high)" !in_low !in_high)
    true
    (Float.of_int !in_high > 4.0 *. Float.of_int !in_low)

let test_bursty_zero_rho_phase_skipped () =
  (* A silent phase produces no arrivals but generation still
     terminates with the full query count. *)
  let phases =
    [|
      { Bursty.duration = 500.0; rho = 2.0 };
      { Bursty.duration = 500.0; rho = 0.0 };
    |]
  in
  let qs = Bursty.generate (base_cfg ~n:1_000 ()) phases in
  check_int "full count" 1_000 (Array.length qs);
  Array.iter
    (fun q ->
      check_bool "never inside the silent half" true
        (Float.rem q.Query.arrival 1_000.0 < 500.0))
    qs

let test_bursty_invalid () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let cfg = base_cfg () in
  check_bool "empty schedule" true (raises (fun () -> Bursty.generate cfg [||]));
  check_bool "non-positive duration" true
    (raises (fun () ->
         Bursty.generate cfg [| { Bursty.duration = 0.0; rho = 1.0 } |]));
  check_bool "negative rho" true
    (raises (fun () ->
         Bursty.generate cfg [| { Bursty.duration = 1.0; rho = -0.5 } |]));
  check_bool "all-silent schedule" true
    (raises (fun () ->
         Bursty.generate cfg [| { Bursty.duration = 1.0; rho = 0.0 } |]));
  check_bool "bad duty" true
    (raises (fun () -> Bursty.square ~period:10.0 ~duty:1.5 ~low:0.1 ~high:1.0))

let prop_trace_sizes_positive =
  QCheck.Test.make ~name:"generated sizes are positive" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let qs = Trace.generate (base_cfg ~n:200 ~seed ()) in
      Array.for_all (fun q -> q.Query.size > 0.0 && q.Query.est_size > 0.0) qs)

(* ------------------------------------------------------------------ *)
(* One SLA value per contract: a generated trace's queries share their
   profile's SLAs physically, one value per contract, not a copy each. *)

let physical_slas queries =
  Array.fold_left
    (fun seen q ->
      if List.exists (( == ) q.Query.sla) seen then seen else q.Query.sla :: seen)
    [] queries

let check_one_value_per_contract what ~contracts queries =
  let values = physical_slas queries in
  check_int (what ^ ": physical SLA values") (List.length contracts)
    (List.length values);
  List.iter
    (fun c ->
      check_bool (what ^ ": each contract is one of them") true
        (List.exists (Sla.equal c) values))
    contracts

let sla_b ~mu = [ Sla_profiles.sla_b_customer ~mu; Sla_profiles.sla_b_employee ~mu ]

let test_trace_shares_slas kind profile () =
  let mu = Workloads.nominal_mean_ms kind in
  let contracts =
    match profile with
    | Workloads.Sla_a -> [ Sla_profiles.sla_a ~mu ]
    | Workloads.Sla_b -> sla_b ~mu
  in
  check_one_value_per_contract
    (Workloads.kind_name kind ^ " " ^ Workloads.profile_name profile)
    ~contracts
    (Trace.generate (base_cfg ~kind ~profile ()))

let test_bursty_shares_slas () =
  check_one_value_per_contract "Bursty SLA-B" ~contracts:(sla_b ~mu:20.0)
    (Bursty.generate (base_cfg ~profile:Workloads.Sla_b ()) (diurnal_phases ()))

let test_predictor_trace_shares_slas () =
  let predictor = Cost_predictor.train ~training_size:300 ~seed:5 () in
  let queries =
    Cost_predictor.generate_trace predictor ~profile:Workloads.Sla_b ~load:0.8
      ~servers:1 ~n_queries:1000 ~seed:3
  in
  (* The bounds scale with the trace's own mean actual size, summed as
     the generator sums it. *)
  let mu =
    Arrayx.sum_float (Array.map (fun q -> q.Query.size) queries) /. 1000.0
  in
  check_one_value_per_contract "Cost_predictor SLA-B" ~contracts:(sla_b ~mu)
    queries

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "workload"
    [
      ( "service-dist",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "uniform" `Quick test_uniform_bounds;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "pareto" `Quick test_pareto_support_and_mean;
          Alcotest.test_case "pareto cap" `Quick test_pareto_cap;
          Alcotest.test_case "empirical" `Quick test_empirical_sampling;
          Alcotest.test_case "invalid" `Quick test_invalid_dists;
        ] );
      ( "ssbm",
        [
          Alcotest.test_case "table values" `Quick test_ssbm_table;
          Alcotest.test_case "uniform sampling" `Quick test_ssbm_sampling_uniform;
        ] );
      ( "sla-assignment",
        [
          Alcotest.test_case "nominal means" `Quick test_nominal_means;
          Alcotest.test_case "SLA-A" `Quick test_sla_a_assignment;
          Alcotest.test_case "SLA-B 10:1 mixture" `Slow test_sla_b_mixture_ratio;
          Alcotest.test_case "SSBM correlation" `Quick test_sla_b_ssbm_correlated;
          Alcotest.test_case "Exp SLA-B trace: one SLA value per contract" `Quick
            (test_trace_shares_slas Workloads.Exp Workloads.Sla_b);
          Alcotest.test_case "Pareto SLA-B trace: one SLA value per contract"
            `Quick
            (test_trace_shares_slas Workloads.Pareto Workloads.Sla_b);
          Alcotest.test_case "SSBM SLA-B trace: one SLA value per contract" `Quick
            (test_trace_shares_slas Workloads.Ssbm_wl Workloads.Sla_b);
          Alcotest.test_case "Exp SLA-A trace: one SLA value per contract" `Quick
            (test_trace_shares_slas Workloads.Exp Workloads.Sla_a);
          Alcotest.test_case "bursty: one SLA value per contract" `Quick
            test_bursty_shares_slas;
          Alcotest.test_case "cost predictor: one SLA value per contract" `Quick
            test_predictor_trace_shares_slas;
        ] );
      ( "estimate-error",
        [
          Alcotest.test_case "none" `Quick test_error_none;
          Alcotest.test_case "gaussian moments" `Slow test_error_gaussian_moments;
          Alcotest.test_case "floor" `Quick test_error_floor;
          Alcotest.test_case "invalid" `Quick test_error_invalid;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_trace_seed_changes_draws;
          Alcotest.test_case "arrivals sorted, ids sequential" `Quick
            test_trace_arrivals_sorted_and_ids;
          Alcotest.test_case "load calibration (Exp)" `Slow test_trace_load_calibration;
          Alcotest.test_case "load calibration (Pareto)" `Slow
            test_trace_load_calibration_pareto;
          Alcotest.test_case "error decouples sizes" `Quick
            test_trace_error_decouples_est_and_actual;
          Alcotest.test_case "error keeps draws paired" `Quick
            test_trace_error_paired_draws;
          Alcotest.test_case "no error means exact" `Quick test_trace_no_error_means_exact;
          Alcotest.test_case "invalid configs" `Quick test_trace_invalid;
          Alcotest.test_case "with_servers" `Quick test_with_servers;
          qtest prop_trace_sizes_positive;
        ] );
      ( "bursty",
        [
          Alcotest.test_case "deterministic" `Quick test_bursty_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_bursty_seed_sensitivity;
          Alcotest.test_case "well formed" `Quick test_bursty_well_formed;
          Alcotest.test_case "schedule shapes" `Quick test_bursty_schedule_shapes;
          Alcotest.test_case "bursts visible" `Quick test_bursty_bursts_visible;
          Alcotest.test_case "silent phase skipped" `Quick
            test_bursty_zero_rho_phase_skipped;
          Alcotest.test_case "invalid schedules" `Quick test_bursty_invalid;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "line roundtrip" `Quick test_trace_io_roundtrip_line;
          Alcotest.test_case "file roundtrip" `Quick test_trace_io_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_trace_io_rejects_garbage;
          Alcotest.test_case "rejects invalid values" `Quick
            test_trace_io_rejects_invalid_values;
          Alcotest.test_case "errors carry file:line" `Quick
            test_trace_io_error_carries_position;
          Alcotest.test_case "save_seq" `Quick test_trace_io_save_seq;
          qtest prop_trace_io_roundtrip;
        ] );
    ]
