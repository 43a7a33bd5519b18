(* Tests for the experiment harness: each table/figure runner produces
   structurally complete output at smoke scale, and the headline shape
   relations of the paper hold. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let tiny : Exp_scale.t =
  { n_queries = 600; warmup = 300; repeats = 1; base_seed = 4242 }

(* ------------------------------------------------------------------ *)
(* Scale *)

let test_scale_of_string () =
  check_bool "paper" true (Exp_scale.of_string "paper" = Some Exp_scale.paper);
  check_bool "smoke" true (Exp_scale.of_string "smoke" = Some Exp_scale.smoke);
  check_bool "default" true (Exp_scale.of_string "default" = Some Exp_scale.default);
  (match Exp_scale.of_string "5000" with
  | Some t ->
    check_int "custom n" 5000 t.Exp_scale.n_queries;
    check_int "custom warmup" 2500 t.Exp_scale.warmup
  | None -> Alcotest.fail "integer scale rejected");
  check_bool "garbage rejected" true (Exp_scale.of_string "bogus" = None);
  check_bool "tiny int rejected" true (Exp_scale.of_string "3" = None)

let test_scale_paper_protocol () =
  check_int "20k queries" 20_000 Exp_scale.paper.Exp_scale.n_queries;
  check_int "10k warmup" 10_000 Exp_scale.paper.Exp_scale.warmup;
  check_int "10 repeats" 10 Exp_scale.paper.Exp_scale.repeats

let test_scale_seeds_distinct () =
  let s0 = Exp_scale.seed tiny ~repeat:0 in
  let s1 = Exp_scale.seed tiny ~repeat:1 in
  check_bool "seeds differ" true (s0 <> s1)

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let test_report_renders () =
  let r =
    {
      Report.title = "test";
      col_groups = [ ("G1", [ "a"; "b" ]); ("G2", [ "c" ]) ];
      rows = [ ("row1", [| 1.0; 2.0; 3.0 |]); ("row2", [| 0.5; Float.nan; 99.0 |]) ];
    }
  in
  check_int "3 columns" 3 (Report.n_cols r);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.render ppf r;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check_bool "title present" true
    (String.length s > 0
    && String.length s > String.length "test"
    &&
    let re_found =
      let rec contains i =
        i + 4 <= String.length s && (String.sub s i 4 = "test" || contains (i + 1))
      in
      contains 0
    in
    re_found)

(* ------------------------------------------------------------------ *)
(* Table runners: structural completeness at tiny scale *)

let test_table2_structure () =
  let cells =
    Table2.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~loads:[ 0.7 ] tiny
  in
  check_int "4 scheduler rows" 4 (List.length cells);
  List.iter
    (fun c ->
      check_bool "loss finite and non-negative" true
        (Float.is_finite c.Table2.avg_loss && c.avg_loss >= 0.0))
    cells

let test_table2_shape_sla_tree_helps_fcfs () =
  let cells =
    Table2.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~loads:[ 0.9 ]
      { tiny with n_queries = 3_000; warmup = 1_500 }
  in
  let find sched =
    (List.find (fun c -> c.Table2.sched = sched) cells).Table2.avg_loss
  in
  check_bool "FCFS+tree <= FCFS" true
    (find Exp_common.Fcfs_tree <= find Exp_common.Fcfs +. 1e-9)

let test_table2_report_dimensions () =
  let cells =
    Table2.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~loads:[ 0.5 ] tiny
  in
  let r = Table2.to_report ~loads:[ 0.5 ] cells in
  check_int "6 col groups (2 SLA x 3 workloads)" 6 (List.length r.Report.col_groups);
  check_int "4 rows" 4 (List.length r.Report.rows)

let test_table3_structure () =
  let cells =
    Table3.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~servers:[ 2 ] tiny
  in
  check_int "3 dispatcher rows" 3 (List.length cells);
  List.iter
    (fun c -> check_bool "finite" true (Float.is_finite c.Table3.avg_loss))
    cells

let test_table3_shape_tree_dispatch_best () =
  let cells =
    Table3.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Pareto ]
      ~servers:[ 3 ]
      { tiny with n_queries = 3_000; warmup = 1_500 }
  in
  let find disp =
    (List.find (fun c -> c.Table3.disp = disp) cells).Table3.avg_loss
  in
  check_bool "SLA-tree dispatch beats LWL/CBS" true
    (find Exp_common.Tree_tree < find Exp_common.Lwl_cbs)

let test_table4_structure () =
  let cells = Table4.compute ~kinds:[ Workloads.Exp ] ~servers:[ 2; 3 ] tiny in
  check_int "two server points" 2 (List.length cells);
  List.iter
    (fun c ->
      check_bool "finite gt" true (Float.is_finite c.Table4.ground_truth);
      check_bool "finite est" true (Float.is_finite c.Table4.estimate))
    cells

let test_table5_structure () =
  let cells =
    Table5.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~sigmas:[ 0.0; 1.0 ] tiny
  in
  check_int "2 scheds x 2 sigmas" 4 (List.length cells)

let test_table5_error_of () =
  check_bool "zero is none" true (Estimate_error.is_none (Table5.error_of 0.0));
  check_float "sigma2 kept" 0.2 (Estimate_error.sigma2 (Table5.error_of 0.2))

let test_table5_shape_error_hurts () =
  let cells =
    Table5.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~sigmas:[ 0.0; 1.0 ]
      { tiny with n_queries = 3_000; warmup = 1_500 }
  in
  let find sched sigma2 =
    (List.find (fun c -> c.Table5.sched = sched && c.sigma2 = sigma2) cells)
      .Table5.avg_loss
  in
  (* Large estimation error cannot help the profit-aware scheduler. *)
  check_bool "sigma 1.0 worse than perfect for CBS+tree" true
    (find Exp_common.Cbs_tree 1.0 >= find Exp_common.Cbs_tree 0.0 -. 0.02)

let test_table6_structure () =
  let cells =
    Table6.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~sigmas:[ 0.0 ] tiny
  in
  check_int "3 dispatchers" 3 (List.length cells)

let test_table7_values () =
  let r = Table7.compute () in
  check_float "original 1.0" 1.0 r.Table7.original_profit;
  check_float "greedy 1.0" 1.0 r.Table7.greedy_profit;
  check_float "optimal 1.2" 1.2 r.Table7.optimal_profit;
  check_bool "greedy keeps head" true r.Table7.greedy_keeps_head;
  check_bool "greedy >= original" true (r.greedy_profit >= r.original_profit)

let test_fig15_structure () =
  let r = Fig15.compute ~samples:20_000 ~seed:5 () in
  check_bool "exp mean near 20" true (Float.abs (r.Fig15.exp_mean -. 20.0) < 1.0);
  check_int "exp histogram counted" 20_000 (Histogram.total r.Fig15.exp_hist);
  check_int "pareto histogram counted" 20_000 (Histogram.total r.Fig15.pareto_hist);
  (* Pareto mass concentrates in the lowest decades. *)
  let counts = Histogram.counts r.Fig15.pareto_hist in
  check_bool "mode in first bins" true (counts.(0) > counts.(Array.length counts - 1))

let test_fig17_structure () =
  let pts = Fig17.compute ~buffer_sizes:[ 50; 100 ] ~seed:5 () in
  check_int "two points" 2 (List.length pts);
  List.iter
    (fun p ->
      check_bool "positive time" true (p.Fig17.ms_per_decision > 0.0);
      check_int "two units per query" (2 * p.Fig17.buffer_len) p.Fig17.slack_units)
    pts

let test_fig17_growth_bounded () =
  (* Build+query is O(NK log NK): time may not explode quadratically.
     Allow a wide margin for constant factors and cache effects. *)
  let pts = Fig17.compute ~buffer_sizes:[ 100; 800 ] ~seed:5 () in
  match pts with
  | [ a; b ] ->
    let ratio = b.Fig17.ms_per_decision /. a.Fig17.ms_per_decision in
    check_bool (Printf.sprintf "8x size -> %.1fx time (< 40x)" ratio) true (ratio < 40.0)
  | _ -> Alcotest.fail "expected two points"

(* ------------------------------------------------------------------ *)
(* Validation and ablations *)

let test_validation_m1_matches_analytic () =
  let rows =
    Validation.compute ~loads:[ 0.5 ] ~servers:[ 1 ]
      { tiny with n_queries = 6_000; warmup = 2_000 }
  in
  match rows with
  | [ r ] ->
    check_bool
      (Printf.sprintf "sim %.4f vs analytic %.4f" r.Validation.simulated r.analytic)
      true
      (Float.abs (r.simulated -. r.analytic) < 0.04)
  | _ -> Alcotest.fail "expected one row"

let test_validation_multi_server_bounded_below () =
  (* Per-server buffers cannot beat the shared-queue M/M/m. *)
  let rows =
    Validation.compute ~loads:[ 0.7 ] ~servers:[ 3 ]
      { tiny with n_queries = 8_000; warmup = 3_000; repeats = 2 }
  in
  match rows with
  | [ r ] ->
    (* Queueing autocorrelation makes single-trace losses noisy; the
       bound is statistical, so allow a generous slack. *)
    check_bool
      (Printf.sprintf "sim %.4f >= analytic %.4f - slack" r.Validation.simulated
         r.analytic)
      true
      (r.simulated >= r.analytic -. 0.06)
  | _ -> Alcotest.fail "expected one row"

let test_ablation_sched_tree_never_worse () =
  let cells =
    Ablations.sched_compute ~kinds:[ Workloads.Exp ]
      { tiny with n_queries = 2_000; warmup = 1_000 }
  in
  check_int "five baselines" 5 (List.length cells);
  List.iter
    (fun c ->
      check_bool
        (Printf.sprintf "%s: tree %.3f <= base %.3f + eps" c.Ablations.base_name
           c.tree_loss c.base_loss)
        true
        (c.tree_loss <= c.base_loss +. 0.05))
    cells

let test_ablation_dispatch_ladder () =
  let cells =
    Ablations.disp_compute ~kinds:[ Workloads.Pareto ] ~servers:3
      { tiny with n_queries = 2_000; warmup = 1_000 }
  in
  check_int "five dispatchers" 5 (List.length cells);
  let loss name =
    (List.find (fun c -> c.Ablations.disp_name = name) cells).Ablations.loss
  in
  check_bool "SLA-tree beats Random" true (loss "SLA-tree" < loss "Random")

let test_ablation_admission_structure () =
  let cells = Ablations.admission_compute ~loads:[ 1.2 ] tiny in
  check_int "two cells" 2 (List.length cells);
  let with_ac = List.find (fun c -> c.Ablations.admission) cells in
  let without = List.find (fun c -> not c.Ablations.admission) cells in
  check_int "no rejections without AC" 0 without.Ablations.rejected;
  check_bool "AC rejects at overload" true (with_ac.Ablations.rejected > 0)

let test_ablation_fairness () =
  let cells =
    Ablations.fairness_compute { tiny with n_queries = 3_000; warmup = 1_000 }
  in
  (* 3 schedulers x 2 classes. *)
  check_int "six cells" 6 (List.length cells);
  let loss sched label =
    (List.find
       (fun c -> c.Ablations.scheduler = sched && c.Ablations.label = label)
       cells)
      .Ablations.class_loss
  in
  (* SLA-tree must not make employees worse than FCFS does (their $10
     penalty dominates the what-if), and buyers must not regress
     either. *)
  check_bool "employees protected" true
    (loss "FCFS+SLA-tree" "employee" <= loss "FCFS" "employee" +. 1e-9);
  check_bool "buyers not sacrificed" true
    (loss "FCFS+SLA-tree" "buyer" <= loss "FCFS" "buyer" +. 0.05)

let test_ablation_predictor_structure () =
  let cells =
    Ablations.predictor_compute { tiny with n_queries = 1_500; warmup = 500 }
  in
  check_int "two estimate regimes" 2 (List.length cells);
  let knn = List.find (fun c -> c.Ablations.estimates = "kNN") cells in
  check_bool "kNN MAPE reported" true (knn.Ablations.mape > 0.0);
  List.iter
    (fun c ->
      check_bool "losses finite" true
        (Float.is_finite c.Ablations.cbs_loss && Float.is_finite c.tree_loss))
    cells

(* ------------------------------------------------------------------ *)
(* Elastic policy specs: a knob the chosen policy ignores is refused *)

let check_knob ~opt result =
  match result with
  | Ok _ -> Alcotest.failf "%s accepted by a policy that ignores it" opt
  | Error e ->
    check_bool (Printf.sprintf "error %S names %s" e opt) true
      (String.starts_with ~prefix:opt e)

let test_spec_forecast_needs_predictive () =
  check_knob ~opt:"--forecast"
    (Exp_elastic.policy_spec_of_string ~forecast:"hw:12" "sla-tree");
  check_bool "predictive takes it" true
    (Result.is_ok
       (Exp_elastic.policy_spec_of_string ~forecast:"hw:12" "predictive"))

let test_spec_horizon_needs_predictive () =
  check_knob ~opt:"--horizon"
    (Exp_elastic.policy_spec_of_string ~horizon:3 "oracle");
  check_bool "predictive takes it" true
    (Result.is_ok (Exp_elastic.policy_spec_of_string ~horizon:3 "predictive"))

let test_spec_rho_needs_oracle () =
  check_knob ~opt:"--oracle-rho"
    (Exp_elastic.policy_spec_of_string ~rho:0.5 "queue");
  check_bool "oracle takes it" true
    (Result.is_ok (Exp_elastic.policy_spec_of_string ~rho:0.5 "oracle"))

(* Runners should print without raising. *)
let test_runners_print () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Table7.run ppf ();
  Fig15.run ~samples:5_000 ppf ~seed:3 ();
  Format.pp_print_flush ppf ();
  check_bool "output produced" true (Buffer.length buf > 200)

let () =
  Alcotest.run "experiments"
    [
      ( "scale",
        [
          Alcotest.test_case "of_string" `Quick test_scale_of_string;
          Alcotest.test_case "paper protocol" `Quick test_scale_paper_protocol;
          Alcotest.test_case "seeds distinct" `Quick test_scale_seeds_distinct;
        ] );
      ("report", [ Alcotest.test_case "renders" `Quick test_report_renders ]);
      ( "table2",
        [
          Alcotest.test_case "structure" `Slow test_table2_structure;
          Alcotest.test_case "SLA-tree helps FCFS" `Slow
            test_table2_shape_sla_tree_helps_fcfs;
          Alcotest.test_case "report dimensions" `Slow test_table2_report_dimensions;
        ] );
      ( "table3",
        [
          Alcotest.test_case "structure" `Slow test_table3_structure;
          Alcotest.test_case "tree dispatch best" `Slow test_table3_shape_tree_dispatch_best;
        ] );
      ("table4", [ Alcotest.test_case "structure" `Slow test_table4_structure ]);
      ( "table5",
        [
          Alcotest.test_case "structure" `Slow test_table5_structure;
          Alcotest.test_case "error_of" `Quick test_table5_error_of;
          Alcotest.test_case "error hurts" `Slow test_table5_shape_error_hurts;
        ] );
      ("table6", [ Alcotest.test_case "structure" `Slow test_table6_structure ]);
      ("table7", [ Alcotest.test_case "values" `Quick test_table7_values ]);
      ( "validation",
        [
          Alcotest.test_case "m=1 matches analytic" `Slow
            test_validation_m1_matches_analytic;
          Alcotest.test_case "m=3 bounded below" `Slow
            test_validation_multi_server_bounded_below;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "tree never worse across schedulers" `Slow
            test_ablation_sched_tree_never_worse;
          Alcotest.test_case "dispatch ladder" `Slow test_ablation_dispatch_ladder;
          Alcotest.test_case "admission structure" `Slow test_ablation_admission_structure;
          Alcotest.test_case "predictor structure" `Slow test_ablation_predictor_structure;
          Alcotest.test_case "fairness per class" `Slow test_ablation_fairness;
        ] );
      ( "elastic spec",
        [
          Alcotest.test_case "--forecast needs predictive" `Quick
            test_spec_forecast_needs_predictive;
          Alcotest.test_case "--horizon needs predictive" `Quick
            test_spec_horizon_needs_predictive;
          Alcotest.test_case "--oracle-rho needs oracle" `Quick
            test_spec_rho_needs_oracle;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig15 structure" `Quick test_fig15_structure;
          Alcotest.test_case "fig17 structure" `Quick test_fig17_structure;
          Alcotest.test_case "fig17 growth bounded" `Slow test_fig17_growth_bounded;
          Alcotest.test_case "runners print" `Quick test_runners_print;
        ] );
    ]
