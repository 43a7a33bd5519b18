(* Tests for the domain-parallel runner: the determinism contract
   (submission-ordered results, bit-identical reduction), exception
   propagation, nested-use behaviour, serial-vs-parallel equivalence
   of experiment grids that fan out over it, and the reservoir cap in
   Metrics that keeps long parallel multi-repeat runs bounded. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [f] with the ambient pool at [n] workers, restoring the serial
   default whatever happens — a leaked pool would leak domains into
   every later test. *)
let with_jobs n f =
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs 1)
    (fun () ->
      Parallel.set_jobs n;
      f ())

(* ------------------------------------------------------------------ *)
(* Explicit pool *)

let test_pool_run_ordered () =
  let pool = Parallel.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      check_int "width" 3 (Parallel.pool_jobs pool);
      let arr = Array.init 100 Fun.id in
      let out = Parallel.run pool (fun x -> x * x) arr in
      Alcotest.(check (array int))
        "squares in submission order"
        (Array.map (fun x -> x * x) arr)
        out;
      (* The pool is reusable across batches, including empty ones. *)
      Alcotest.(check (array int)) "empty batch" [||] (Parallel.run pool Fun.id [||]);
      Alcotest.(check (array int)) "singleton batch" [| 7 |] (Parallel.run pool Fun.id [| 7 |]))

exception Boom of int

let test_pool_exception_lowest_index () =
  let pool = Parallel.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let raised =
        match
          Parallel.run pool
            (fun i -> if i >= 5 then raise (Boom i) else i)
            (Array.init 32 Fun.id)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      check_bool "lowest raising index re-raised" true (raised = Some 5);
      (* The batch that raised must leave the pool usable. *)
      Alcotest.(check (array int))
        "pool survives a raising batch" [| 1; 2; 3 |]
        (Parallel.run pool Fun.id [| 1; 2; 3 |]))

let test_pool_nested_run_raises () =
  let outer = Parallel.create ~jobs:2 in
  let inner = Parallel.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () ->
      Parallel.shutdown outer;
      Parallel.shutdown inner)
    (fun () ->
      let out =
        Parallel.run outer
          (fun _ ->
            match Parallel.run inner Fun.id [| 1; 2 |] with
            | _ -> false
            | exception Parallel.Nested_parallelism -> true)
          [| 0; 1 |]
      in
      check_bool "run from any pool's worker is rejected" true
        (Array.for_all Fun.id out))

let test_pool_shutdown () =
  let pool = Parallel.create ~jobs:2 in
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  check_bool "run on a shut-down pool rejected" true
    (match Parallel.run pool Fun.id [| 1; 2 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pool_invalid_width () =
  let rejects jobs =
    match Parallel.create ~jobs with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "jobs = 0" true (rejects 0);
  check_bool "jobs > max" true (rejects (Parallel.max_jobs + 1))

(* ------------------------------------------------------------------ *)
(* Ambient pool *)

let test_ambient_default_serial () =
  check_int "serial by default" 1 (Parallel.jobs ());
  Alcotest.(check (array int))
    "map_ordered works without a pool" [| 0; 1; 4; 9 |]
    (Parallel.map_ordered (fun x -> x * x) [| 0; 1; 2; 3 |])

let test_ambient_set_jobs () =
  with_jobs 3 (fun () ->
      check_int "width reported" 3 (Parallel.jobs ());
      Parallel.set_jobs 2;
      check_int "pool replaced" 2 (Parallel.jobs ()));
  check_int "restored to serial" 1 (Parallel.jobs ())

let test_ambient_validation () =
  let rejects n =
    match Parallel.set_jobs n with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "0 rejected" true (rejects 0);
  check_bool "over max rejected" true (rejects (Parallel.max_jobs + 1));
  check_int "still serial after rejects" 1 (Parallel.jobs ())

let test_ambient_nested_degrades () =
  (* A grid parallelising cells whose cells parallelise repeats: the
     inner fan-out must silently run serially on the worker instead of
     raising or deadlocking. *)
  with_jobs 2 (fun () ->
      let out =
        Parallel.map_ordered
          (fun i ->
            Array.to_list
              (Parallel.map_ordered
                 (fun j -> (10 * i) + j)
                 (Array.init 4 Fun.id)))
          (Array.init 3 Fun.id)
      in
      Alcotest.(check (array (list int)))
        "nested fan-out correct and ordered"
        (Array.init 3 (fun i -> List.init 4 (fun j -> (10 * i) + j)))
        out)

let test_map_list_order () =
  with_jobs 4 (fun () ->
      Alcotest.(check (list int))
        "list order preserved" [ 9; 4; 1; 0 ]
        (Parallel.map_list (fun x -> x * x) [ 3; 2; 1; 0 ]))

(* Fuzz the contract itself: whatever the input, [map_ordered] under a
   pool returns [Float.equal]-identical results to the serial map, so
   any fold the caller does accumulates in the same order with the
   same bits. *)
let prop_map_ordered_bit_identical =
  QCheck.Test.make ~name:"map_ordered bit-identical to serial map" ~count:40
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let f x = Float.sin x +. (x *. 3.0) +. (1.0 /. (1.0 +. Float.abs x)) in
      let serial = Array.map f arr in
      with_jobs 3 (fun () ->
          let par = Parallel.map_ordered f arr in
          Array.length par = Array.length serial
          && Array.for_all2 Float.equal par serial))

let prop_exception_deterministic =
  QCheck.Test.make ~name:"raising index re-raised deterministically" ~count:30
    QCheck.(pair (int_range 2 40) (int_bound 39))
    (fun (n, k) ->
      let k = k mod n in
      with_jobs 4 (fun () ->
          match
            Parallel.map_ordered
              (fun i -> if i >= k then raise (Boom i) else i)
              (Array.init n Fun.id)
          with
          | _ -> false
          | exception Boom i -> i = k))

(* ------------------------------------------------------------------ *)
(* Serial-vs-parallel equivalence of the experiment grids (tiny
   scale). [repeats = 2] exercises the within-cell repeat fan-out of
   Exp_common.repeats and Table 4's pair fold. *)

let tiny : Exp_scale.t =
  { Exp_scale.n_queries = 600; warmup = 300; repeats = 2; base_seed = 4242 }

let test_table2_equivalence () =
  let slice scale =
    Table2.compute ~profiles:[ Workloads.Sla_a ] ~kinds:[ Workloads.Exp ]
      ~loads:[ 0.7; 0.9 ] scale
  in
  let serial = slice tiny in
  let par = with_jobs 4 (fun () -> slice tiny) in
  check_int "cell count" (List.length serial) (List.length par);
  List.iter2
    (fun (a : Table2.cell) (b : Table2.cell) ->
      check_bool "cell bit-identical" true
        (a.Table2.profile = b.Table2.profile
        && a.Table2.kind = b.Table2.kind
        && a.Table2.sched = b.Table2.sched
        && Float.equal a.Table2.load b.Table2.load
        && Float.equal a.Table2.avg_loss b.Table2.avg_loss))
    serial par

let test_table4_equivalence () =
  let slice scale = Table4.compute ~kinds:[ Workloads.Exp ] ~servers:[ 2; 3 ] scale in
  let serial = slice tiny in
  let par = with_jobs 4 (fun () -> slice tiny) in
  check_int "cell count" (List.length serial) (List.length par);
  List.iter2
    (fun (a : Table4.cell) (b : Table4.cell) ->
      check_bool "cell bit-identical" true
        (a.Table4.kind = b.Table4.kind
        && a.Table4.servers = b.Table4.servers
        && Float.equal a.Table4.ground_truth b.Table4.ground_truth
        && Float.equal a.Table4.estimate b.Table4.estimate))
    serial par

let test_elastic_equivalence () =
  let rows () = Exp_elastic.rows ~scale:tiny ~seed:tiny.Exp_scale.base_seed () in
  let serial = rows () in
  let par = with_jobs 4 (fun () -> rows ()) in
  check_int "row count" (List.length serial) (List.length par);
  List.iter2
    (fun (a : Exp_elastic.row) (b : Exp_elastic.row) ->
      check_bool "row bit-identical" true
        (a.Exp_elastic.label = b.Exp_elastic.label
        && Float.equal a.Exp_elastic.profit b.Exp_elastic.profit
        && Float.equal a.Exp_elastic.cost b.Exp_elastic.cost
        && Float.equal a.Exp_elastic.net b.Exp_elastic.net))
    serial par

let test_resilience_equivalence () =
  let rows () = Exp_resilience.rows ~scale:tiny () in
  let serial = rows () in
  let par = with_jobs 4 (fun () -> rows ()) in
  check_int "row count" (List.length serial) (List.length par);
  List.iter2
    (fun (a : Exp_resilience.row) (b : Exp_resilience.row) ->
      check_bool "row bit-identical" true
        (a.Exp_resilience.pool = b.Exp_resilience.pool
        && a.Exp_resilience.dispatcher = b.Exp_resilience.dispatcher
        && a.Exp_resilience.plan = b.Exp_resilience.plan
        && Float.equal a.Exp_resilience.profit b.Exp_resilience.profit
        && Float.equal a.Exp_resilience.drop b.Exp_resilience.drop
        && a.Exp_resilience.crashes = b.Exp_resilience.crashes))
    serial par

(* ------------------------------------------------------------------ *)
(* Metrics reservoir sampling *)

let sla10 = Sla.one_zero ~bound:10.0
let mkq id = Query.make ~id ~arrival:0.0 ~size:1.0 ~sla:sla10 ()

let test_reservoir_below_cap_unchanged () =
  (* Runs that fit under the cap must be byte-for-byte what the
     uncapped path produces. *)
  let capped = Metrics.create ~response_cap:100 ~warmup_id:0 () in
  let plain = Metrics.create ~warmup_id:0 () in
  for i = 0 to 99 do
    let completion = Float.of_int ((i * 37 mod 100) + 1) in
    Metrics.record capped (mkq i) ~completion;
    Metrics.record plain (mkq i) ~completion
  done;
  let ps = [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ] in
  List.iter2
    (fun a b -> check_bool "identical percentile" true (Float.equal a b))
    (Metrics.response_percentiles capped ps)
    (Metrics.response_percentiles plain ps)

let test_reservoir_past_cap () =
  let run () =
    let m = Metrics.create ~response_cap:50 ~warmup_id:0 () in
    for i = 0 to 9_999 do
      Metrics.record m (mkq i) ~completion:(Float.of_int (i mod 1000) +. 1.0)
    done;
    (m, Metrics.response_percentiles m [ 0.0; 50.0; 99.0; 100.0 ])
  in
  let m, a = run () in
  let _, b = run () in
  (* Deterministic: identical runs keep identical samples. *)
  List.iter2
    (fun x y -> check_bool "deterministic past cap" true (Float.equal x y))
    a b;
  List.iter (fun x -> check_bool "finite" true (Float.is_finite x)) a;
  (* The reservoir spans the whole run, not its first [cap] responses
     (which were all <= 50 here): the median of 50 uniform draws from
     (0, 1000] sits nowhere near that prefix. *)
  check_bool "sample covers the full run" true (List.nth a 1 > 100.0);
  (* Sampling bounds the retained responses, not the accounting. *)
  check_int "measured count unaffected" 10_000 (Metrics.measured_count m)

let prop_reservoir_cap_invariants =
  QCheck.Test.make ~name:"reservoir: finite percentiles at any cap/length"
    ~count:60
    QCheck.(pair (int_range 1 40) (int_range 1 500))
    (fun (cap, n) ->
      let m = Metrics.create ~response_cap:cap ~warmup_id:0 () in
      for i = 0 to n - 1 do
        Metrics.record m (mkq i) ~completion:(Float.of_int ((i * 13 mod 97) + 1))
      done;
      Metrics.measured_count m = n
      && List.for_all Float.is_finite
           (Metrics.response_percentiles m [ 0.0; 50.0; 100.0 ]))

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered results, reusable" `Quick test_pool_run_ordered;
          Alcotest.test_case "lowest-index exception" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "nested run raises" `Quick test_pool_nested_run_raises;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "invalid width" `Quick test_pool_invalid_width;
        ] );
      ( "ambient",
        [
          Alcotest.test_case "default serial" `Quick test_ambient_default_serial;
          Alcotest.test_case "set_jobs" `Quick test_ambient_set_jobs;
          Alcotest.test_case "validation" `Quick test_ambient_validation;
          Alcotest.test_case "nested degrades to serial" `Quick
            test_ambient_nested_degrades;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          qtest prop_map_ordered_bit_identical;
          qtest prop_exception_deterministic;
        ] );
      ( "grids",
        [
          Alcotest.test_case "table2 serial = parallel" `Slow test_table2_equivalence;
          Alcotest.test_case "table4 serial = parallel" `Slow test_table4_equivalence;
          Alcotest.test_case "elastic serial = parallel" `Slow test_elastic_equivalence;
          Alcotest.test_case "resilience serial = parallel" `Slow
            test_resilience_equivalence;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "below cap unchanged" `Quick
            test_reservoir_below_cap_unchanged;
          Alcotest.test_case "past cap: deterministic full-run sample" `Quick
            test_reservoir_past_cap;
          qtest prop_reservoir_cap_invariants;
        ] );
    ]
