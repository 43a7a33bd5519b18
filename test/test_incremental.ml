(* Tests for the incremental SLA-tree: every answer must equal a fresh
   static SLA-tree built over the same live schedule, across pops
   (with and without drift), appends, drains and random operation
   sequences. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let sla2 =
  Sla.make
    ~levels:[ { bound = 30.0; gain = 2.0 }; { bound = 80.0; gain = 1.0 } ]
    ~penalty:1.0

let mk ?(sla = sla2) id arrival size = Query.make ~id ~arrival ~size ~sla ()

let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)

(* Oracles: a fresh static tree over the incremental structure's live
   schedule, and the naive unit scan over the same schedule, which
   shares no code with the flat tree both structures run on. *)
let static_of t = Sla_tree.of_entries ~now:0.0 (Incr_sla_tree.to_entries t)

let agree t ~msg =
  let n = Incr_sla_tree.length t in
  if n > 0 then begin
    let entries = Incr_sla_tree.to_entries t in
    let oracle = static_of t in
    let check name a b =
      if not (close a b) then
        Alcotest.failf "%s: %s incr %.9f vs %.9f" msg name a b
    in
    List.iter
      (fun tau ->
        for m = 0 to n - 1 do
          let hi = n - 1 in
          let name q = Printf.sprintf "%s(%d,%d,%g)" q m hi tau in
          let a = Incr_sla_tree.postpone t ~m ~n:hi ~tau in
          check (name "postpone static") a
            (Sla_tree.postpone oracle ~m ~n:hi ~tau);
          check (name "postpone naive") a
            (Naive_whatif.postpone_by_units entries ~m ~n:hi ~tau);
          let a = Incr_sla_tree.expedite t ~m ~n:hi ~tau in
          check (name "expedite static") a
            (Sla_tree.expedite oracle ~m ~n:hi ~tau);
          check (name "expedite naive") a
            (Naive_whatif.expedite_by_units entries ~m ~n:hi ~tau)
        done)
      [ 0.0; 1.0; 7.5; 25.0; 60.0; 200.0 ]
  end

let initial_buffer n =
  Array.init n (fun i -> mk i (Float.of_int i *. 3.0) (5.0 +. Float.of_int (i mod 7)))

let test_fresh_matches_static () =
  let t = Incr_sla_tree.create ~now:50.0 (initial_buffer 12) in
  agree t ~msg:"fresh"

let test_pop_exact () =
  let t = Incr_sla_tree.create ~now:50.0 (initial_buffer 12) in
  Incr_sla_tree.pop_head t;
  agree t ~msg:"after 1 exact pop";
  Incr_sla_tree.pop_head t;
  Incr_sla_tree.pop_head t;
  agree t ~msg:"after 3 exact pops";
  check_float "no drift" 0.0 (Incr_sla_tree.delay t);
  check_int "no rebuild yet" 0 (Incr_sla_tree.rebuild_count t)

let test_pop_with_drift () =
  let t = Incr_sla_tree.create ~now:50.0 (initial_buffer 12) in
  (* First query (est 5) actually takes 9: everything shifts by +4. *)
  Incr_sla_tree.pop_head ~actual:9.0 t;
  check_float "positive drift" 4.0 (Incr_sla_tree.delay t);
  agree t ~msg:"after slow pop";
  (* Next one finishes early: drift partially cancels. *)
  Incr_sla_tree.pop_head ~actual:1.0 t;
  check_float "drift netted" (4.0 -. 5.0) (Incr_sla_tree.delay t);
  agree t ~msg:"after fast pop"

let test_pop_large_negative_drift () =
  (* Strong negative drift un-lates queries that were past their
     deadlines: the S- correction terms must kick in. *)
  let tight = Sla.make ~levels:[ { bound = 4.0; gain = 3.0 } ] ~penalty:0.0 in
  let qs = Array.init 6 (fun i -> mk ~sla:tight i 0.0 5.0) in
  let t = Incr_sla_tree.create ~now:0.0 qs in
  (* All except the head are hopelessly late on the planned schedule. *)
  Incr_sla_tree.pop_head ~actual:0.5 t;
  agree t ~msg:"after very fast pop";
  Incr_sla_tree.pop_head ~actual:0.5 t;
  agree t ~msg:"after two very fast pops"

let test_append_matches () =
  let t = Incr_sla_tree.create ~now:50.0 (initial_buffer 6) in
  Incr_sla_tree.append t (mk 100 60.0 4.0);
  check_int "one pending" 1 (Incr_sla_tree.pending_count t);
  agree t ~msg:"after 1 append";
  Incr_sla_tree.append t (mk 101 61.0 9.0);
  Incr_sla_tree.append t (mk 102 62.0 2.0);
  agree t ~msg:"after 3 appends"

let test_append_after_drift () =
  let t = Incr_sla_tree.create ~now:50.0 (initial_buffer 6) in
  Incr_sla_tree.pop_head ~actual:11.0 t;
  Incr_sla_tree.append t (mk 100 70.0 4.0);
  agree t ~msg:"append on drifted schedule";
  Incr_sla_tree.pop_head ~actual:2.0 t;
  agree t ~msg:"drift after append"

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let test_fold_when_scans_paid () =
  let t = Incr_sla_tree.create ~now:0.0 (initial_buffer 4) in
  for i = 0 to 19 do
    Incr_sla_tree.append t (mk (100 + i) (Float.of_int i) 3.0)
  done;
  check_int "appends alone never rebuild" 0 (Incr_sla_tree.rebuild_count t);
  check_int "every append in the overflow" 20 (Incr_sla_tree.pending_count t);
  agree t ~msg:"before the fold";
  (* [agree] scanned far past the budget, but a probe never folds. *)
  check_int "probes never fold" 0 (Incr_sla_tree.rebuild_count t);
  Incr_sla_tree.pop_head t;
  check_int "the next pop folds" 1 (Incr_sla_tree.rebuild_count t);
  check_int "overflow folded in" 0 (Incr_sla_tree.pending_count t);
  agree t ~msg:"after the fold";
  (* Full-range probes with a pop or an append between them: the update
     after the scans pass n * (floor(log2 n) + 1) entries folds, and no
     update before it does. *)
  let t = Incr_sla_tree.create ~now:0.0 (initial_buffer 4) in
  for i = 0 to 19 do
    Incr_sla_tree.append t (mk (100 + i) (Float.of_int i) 3.0)
  done;
  let scanned = ref 0 and step = ref 0 in
  while Incr_sla_tree.rebuild_count t = 0 && !step < 100 do
    let n = Incr_sla_tree.length t in
    ignore (Incr_sla_tree.postpone t ~m:0 ~n:(n - 1) ~tau:25.0);
    scanned := !scanned + Incr_sla_tree.pending_count t;
    if !step mod 2 = 0 then Incr_sla_tree.pop_head t
    else Incr_sla_tree.append t (mk (200 + !step) (Float.of_int !step) 3.0);
    let n = Incr_sla_tree.length t in
    check_bool
      (Printf.sprintf "step %d: folded iff %d scanned > budget %d" !step
         !scanned (n * (log2 n + 1)))
      (!scanned > n * (log2 n + 1))
      (Incr_sla_tree.rebuild_count t = 1);
    incr step
  done;
  check_int "folded once" 1 (Incr_sla_tree.rebuild_count t);
  agree t ~msg:"after the paid fold";
  (* Scans of exactly the budget have not paid yet; one entry more has. *)
  let t = Incr_sla_tree.create ~now:0.0 [||] in
  Incr_sla_tree.reset t ~now:0.0 (initial_buffer 9);
  for _ = 1 to 4 do
    ignore (Incr_sla_tree.postpone t ~m:0 ~n:7 ~tau:25.0)
  done;
  Incr_sla_tree.pop_head t;
  check_int "8 live, 32 scanned: no fold" 0 (Incr_sla_tree.rebuild_count t);
  ignore (Incr_sla_tree.postpone t ~m:0 ~n:0 ~tau:25.0);
  Incr_sla_tree.append t (mk 300 0.0 3.0);
  check_int "9 live, 33 scanned: no fold" 0 (Incr_sla_tree.rebuild_count t);
  Incr_sla_tree.pop_head t;
  check_int "8 live, 33 scanned: fold" 1 (Incr_sla_tree.rebuild_count t)

let test_drain_and_restart () =
  let t = Incr_sla_tree.create ~now:10.0 (initial_buffer 3) in
  Incr_sla_tree.pop_head ~actual:6.0 t;
  Incr_sla_tree.pop_head t;
  Incr_sla_tree.pop_head t;
  check_int "empty" 0 (Incr_sla_tree.length t);
  (* Server idles, then traffic resumes. *)
  Incr_sla_tree.reset_origin t ~now:500.0;
  Incr_sla_tree.append t (mk 50 500.0 10.0);
  agree t ~msg:"restarted after drain";
  (* The restarted query starts at 500: completion 510; unit slacks 20
     (decomposed gain g1 - g2 = 1) and 70 (gain g2 + p = 2). *)
  check_float "first unit lost" 1.0 (Incr_sla_tree.postpone t ~m:0 ~n:0 ~tau:20.5);
  check_float "both units lost" 3.0 (Incr_sla_tree.postpone t ~m:0 ~n:0 ~tau:70.5)

let test_pop_from_overflow () =
  (* Once the base is used up, pops take the overflow's head and
     nothing is rebuilt. *)
  let t = Incr_sla_tree.create ~now:0.0 (initial_buffer 1) in
  Incr_sla_tree.append t (mk 10 1.0 2.0);
  Incr_sla_tree.append t (mk 11 2.0 2.0);
  Incr_sla_tree.pop_head t;
  (* base drained; the next pop reads the overflow *)
  Incr_sla_tree.pop_head ~actual:3.5 t;
  check_int "one left" 1 (Incr_sla_tree.length t);
  check_int "no rebuild" 0 (Incr_sla_tree.rebuild_count t);
  check_float "drift from the overflow pop" 1.5 (Incr_sla_tree.delay t);
  agree t ~msg:"after popping the overflow"

let test_errors () =
  let t = Incr_sla_tree.create ~now:0.0 [||] in
  check_bool "pop empty raises" true
    (match Incr_sla_tree.pop_head t with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Incr_sla_tree.append t (mk 0 0.0 1.0);
  check_bool "reset non-empty raises" true
    (match Incr_sla_tree.reset_origin t ~now:10.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad range raises" true
    (match Incr_sla_tree.postpone t ~m:0 ~n:5 ~tau:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Random operation sequences vs the static and naive oracles. *)

type op =
  | Append of float * float
  | Pop of float
  | Check of float
  | Reset of int  (* a rush: reset in the order [q_k; the rest] *)

(* The live buffer with entry [k mod n] moved to the front, as a rush
   reorders it, and the head's true start. *)
let rushed_order t k =
  let entries = Incr_sla_tree.to_entries t in
  let n = Array.length entries in
  let k = k mod n in
  let qs = Array.map (fun e -> e.Schedule.query) entries in
  ( entries.(0).Schedule.start,
    Array.init n (fun j ->
        if j = 0 then qs.(k) else if j <= k then qs.(j - 1) else qs.(j)) )

let gen_ops =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map2 (fun s b -> Append (s, b)) (float_range 0.5 20.0) (float_range 2.0 120.0));
          (3, map (fun f -> Pop f) (float_range 0.1 2.5));
          (2, map (fun tau -> Check tau) (float_range 0.0 150.0));
          (1, map (fun k -> Reset k) (0 -- 40));
        ]
    in
    list_size (5 -- 60) op)

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Append (s, b) -> Printf.sprintf "A(%.2f,%.2f)" s b
             | Pop f -> Printf.sprintf "P(%.2f)" f
             | Check tau -> Printf.sprintf "C(%.2f)" tau
             | Reset k -> Printf.sprintf "R(%d)" k)
           ops))
    gen_ops

let prop_random_ops_match_oracle =
  QCheck.Test.make ~name:"random op sequences match static oracle" ~count:200
    arb_ops
    (fun ops ->
      let t = Incr_sla_tree.create ~now:0.0 (initial_buffer 5) in
      let next_id = ref 1000 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Append (size, bound) ->
            let sla = Sla.make ~levels:[ { bound; gain = 1.5 } ] ~penalty:0.5 in
            incr next_id;
            Incr_sla_tree.append t
              (Query.make ~id:!next_id ~arrival:(Float.of_int !next_id) ~size ~sla ())
          | Pop factor ->
            if Incr_sla_tree.length t > 0 then begin
              let entries = Incr_sla_tree.to_entries t in
              let est = entries.(0).Schedule.query.Query.est_size in
              Incr_sla_tree.pop_head ~actual:(est *. factor) t
            end
          | Check tau ->
            let n = Incr_sla_tree.length t in
            if n > 0 then begin
              let entries = Incr_sla_tree.to_entries t in
              let oracle = static_of t in
              let m = n / 3 and hi = n - 1 in
              let p = Incr_sla_tree.postpone t ~m ~n:hi ~tau in
              let e = Incr_sla_tree.expedite t ~m:0 ~n:hi ~tau in
              if
                not
                  (close p (Sla_tree.postpone oracle ~m ~n:hi ~tau)
                  && close p
                       (Naive_whatif.postpone_by_units entries ~m ~n:hi ~tau)
                  && close e (Sla_tree.expedite oracle ~m:0 ~n:hi ~tau)
                  && close e
                       (Naive_whatif.expedite_by_units entries ~m:0 ~n:hi ~tau))
              then ok := false
            end
          | Reset k ->
            if Incr_sla_tree.length t > 0 then begin
              let now, order = rushed_order t k in
              Incr_sla_tree.reset t ~now order;
              (* The same starts, bit for bit, as the static schedule. *)
              if
                not
                  (Array.for_all2
                     (fun a b ->
                       a.Schedule.query == b.Schedule.query
                       && Float.equal a.Schedule.start b.Schedule.start)
                     (Incr_sla_tree.to_entries t)
                     (Schedule.of_queries ~now order))
              then ok := false
            end)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Live trees as a server drives them: arrivals with estimation error
   and tenancy-tier gains (0.6/1.3/1.5 make them non-dyadic), pops with
   random actual times (drift), and post-rush resets. *)

type live_op =
  | Arrive of float * float * int  (* size, est / size, tier index *)
  | Run of float  (* actual / est of the head *)
  | Rush of int  (* reset in the order [q_k; the rest] *)
  | Probe

let tiers = [| 0.6; 1.0; 1.3; 1.5 |]

let tier_sla tier =
  Sla.make
    ~levels:
      [ { bound = 20.0; gain = 2.0 *. tier }; { bound = 100.0; gain = tier } ]
    ~penalty:(0.5 *. tier)

let gen_live_ops =
  QCheck.Gen.(
    let op =
      frequency
        [
          ( 4,
            map3
              (fun s e k -> Arrive (s, e, k))
              (float_range 0.5 40.0)
              (oneof [ return 1.0; float_range 0.4 2.5 ])
              (0 -- 3) );
          (3, map (fun f -> Run f) (float_range 0.1 3.0));
          (1, map (fun k -> Rush k) (0 -- 40));
          (2, return Probe);
        ]
    in
    list_size (10 -- 120) op)

let arb_live_ops =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Arrive (s, e, k) -> Printf.sprintf "A(%h,%h,%d)" s e k
             | Run f -> Printf.sprintf "R(%h)" f
             | Rush k -> Printf.sprintf "U(%d)" k
             | Probe -> "P")
           ops))
    gen_live_ops

(* Replay [ops] on a live tree, calling [probe t] at every [Probe];
   false as soon as one answers false. *)
let drive_live ops ~probe =
  let clock = ref 0.0 and next_id = ref 0 in
  let t = Incr_sla_tree.create ~now:0.0 [||] in
  List.for_all
    (fun op ->
      match op with
      | Arrive (size, est_ratio, k) ->
        incr next_id;
        Incr_sla_tree.append t
          (Query.make ~id:!next_id ~arrival:!clock ~size
             ~est_size:(size *. est_ratio) ~sla:(tier_sla tiers.(k)) ());
        true
      | Run factor ->
        if Incr_sla_tree.length t > 0 then begin
          let head = (Incr_sla_tree.to_entries t).(0) in
          let actual = head.Schedule.query.Query.est_size *. factor in
          clock := head.Schedule.start +. actual;
          Incr_sla_tree.pop_head ~actual t;
          if Incr_sla_tree.length t = 0 then
            Incr_sla_tree.reset_origin t ~now:!clock
        end;
        true
      | Rush k ->
        if Incr_sla_tree.length t > 1 then begin
          let now, order = rushed_order t k in
          Incr_sla_tree.reset t ~now order
        end;
        true
      | Probe -> probe t)
    ops

let prop_probes_never_negative =
  QCheck.Test.make ~name:"postpone and expedite never go negative" ~count:300
    arb_live_ops
    (fun ops ->
      drive_live ops ~probe:(fun t ->
          let entries = Incr_sla_tree.to_entries t in
          let n = Array.length entries in
          let taus =
            [ 1.0; 7.5; 25.0; 60.0 ]
            @ Array.to_list
                (Array.map (fun e -> e.Schedule.query.Query.est_size) entries)
          in
          List.for_all
            (fun tau ->
              List.for_all
                (fun (m, hi) ->
                  Incr_sla_tree.postpone t ~m ~n:hi ~tau >= 0.0
                  && Incr_sla_tree.expedite t ~m ~n:hi ~tau >= 0.0)
                (List.init n (fun i -> (0, i))
                @ List.init n (fun m -> (m, n - 1))))
            taus))

let prop_pruned_rush_matches_unpruned =
  QCheck.Test.make ~name:"pruned best_rush_incr == unpruned (bitwise)"
    ~count:300 arb_live_ops
    (fun ops ->
      drive_live ops ~probe:(fun t ->
          let pruned = What_if.best_rush_incr t
          and unpruned = Rush_oracle.best_rush_incr t in
          Rush_oracle.same pruned unpruned
          || QCheck.Test.fail_reportf "pruned %s, unpruned %s"
               (Rush_oracle.to_string pruned)
               (Rush_oracle.to_string unpruned)))

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "incremental"
    [
      ( "basic",
        [
          Alcotest.test_case "fresh matches static" `Quick test_fresh_matches_static;
          Alcotest.test_case "pop exact" `Quick test_pop_exact;
          Alcotest.test_case "pop with drift" `Quick test_pop_with_drift;
          Alcotest.test_case "large negative drift" `Quick test_pop_large_negative_drift;
          Alcotest.test_case "append" `Quick test_append_matches;
          Alcotest.test_case "append after drift" `Quick test_append_after_drift;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case
            "overflow folds once its scans have paid for a build" `Quick
            test_fold_when_scans_paid;
          Alcotest.test_case "drain and restart" `Quick test_drain_and_restart;
          Alcotest.test_case "pop takes from the overflow" `Quick
            test_pop_from_overflow;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "property",
        [
          qtest prop_random_ops_match_oracle;
          qtest prop_probes_never_negative;
          qtest prop_pruned_rush_matches_unpruned;
        ] );
    ]
