(* Tests for the SLA-tree core: the paper's running example (Figs 6-7),
   equivalence with two independent naive oracles, the additive
   property, what-if decision helpers and the Table 7 greedy
   counterexample. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The paper's running example (Sec 3.3, Figs 6, 7).

   16 queries q1..q16; odd ids have positive slacks, listed here in
   increasing slack order as they appear as slack-tree leaves:
     slack: 10  20  30  40  50  60  70  80
     id:    11   5   3   7   1  15  13   9
   The 1/0 model gives postpone(1, 9, 32) = 2; the g/0 model with
   gains (id -> gain) 11->100, 5->200, 3->100, 7->300, 1->100, 15->100,
   13->200, 9->100 gives postpone(1, 9, 32) = 300. *)

let paper_units gains =
  let leaves = [ (11, 10.0); (5, 20.0); (3, 30.0); (7, 40.0);
                 (1, 50.0); (15, 60.0); (13, 70.0); (9, 80.0) ] in
  Array.of_list
    (List.map
       (fun (id, slack) ->
         { Slack_units.uid = id; slack; gain = gains id })
       leaves)

let paper_gains_g0 = function
  | 11 -> 100.0 | 5 -> 200.0 | 3 -> 100.0 | 7 -> 300.0
  | 1 -> 100.0 | 15 -> 100.0 | 13 -> 200.0 | 9 -> 100.0
  | _ -> assert false

let test_paper_example_10 () =
  let tree = Cascade_tree.build (paper_units (fun _ -> 1.0)) in
  check_float "postpone(1,9,32) = 2" 2.0
    (Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n:9 ~tau:32.0)

let test_paper_example_g0 () =
  let tree = Cascade_tree.build (paper_units paper_gains_g0) in
  check_float "postpone(1,9,32) = 300" 300.0
    (Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n:9 ~tau:32.0)

let test_paper_example_totals () =
  let tree = Cascade_tree.build (paper_units paper_gains_g0) in
  (* Root cumulative profits from Fig 7: ids 1,3,5,7,9,11,13,15 ->
     100,200,400,700,800,900,1100,1200. *)
  List.iter
    (fun (n, expected) ->
      check_float (Printf.sprintf "cum at id %d" n) expected
        (Cascade_tree.prefix_total tree ~n))
    [ (1, 100.0); (3, 200.0); (5, 400.0); (7, 700.0); (9, 800.0);
      (11, 900.0); (13, 1100.0); (15, 1200.0) ];
  check_float "grand total" 1200.0 (Cascade_tree.total tree)

let test_paper_example_more_questions () =
  let tree = Cascade_tree.build (paper_units paper_gains_g0) in
  let q n tau = Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n ~tau in
  check_float "tau below all slacks" 0.0 (q 15 10.0);
  check_float "tau just above min slack" 100.0 (q 15 10.5);
  check_float "tau above everything" 1200.0 (q 15 1000.0);
  check_float "n excludes large ids" 100.0 (q 3 35.0);
  check_float "n below smallest id" 0.0 (q 0 1000.0)

(* The general-profit-model example (Figs 9-10): the same 8 units as
   Fig 7 but owned by 4 queries with 2-level SLAs, so descendant lists
   merge duplicate ids. Leaves in slack order carry ids
   3,2,1,2,1,4,4,3 with gains 100,200,100,300,100,100,200,100; the
   root's merged list is [1;2;3;4] with cumulative profits
   200,700,900,1200. *)
let fig10_units () =
  let leaves =
    [ (3, 10.0, 100.0); (2, 20.0, 200.0); (1, 30.0, 100.0); (2, 40.0, 300.0);
      (1, 50.0, 100.0); (4, 60.0, 100.0); (4, 70.0, 200.0); (3, 80.0, 100.0) ]
  in
  Array.of_list
    (List.map (fun (uid, slack, gain) -> { Slack_units.uid; slack; gain }) leaves)

let test_paper_example_general_model () =
  let tree = Cascade_tree.build (fig10_units ()) in
  Cascade_tree.check_invariants tree;
  List.iter
    (fun (n, expected) ->
      check_float (Printf.sprintf "root cum at id %d" n) expected
        (Cascade_tree.prefix_total tree ~n))
    [ (1, 200.0); (2, 700.0); (3, 900.0); (4, 1200.0) ];
  (* postpone(1, 2, 45): units with slack < 45 and id <= 2: the
     slack-20 (200), slack-30 (100) and slack-40 (300) units. *)
  check_float "postpone over merged ids" 600.0
    (Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n:2 ~tau:45.0);
  check_float "log2 variant agrees" 600.0
    (Cascade_tree.prefix_loss_binary_search tree Cascade_tree.Lt ~n:2 ~tau:45.0)

let test_paper_example_log2_variant () =
  (* The pointer-free O(log^2) traversal (Sec 3.3.3) gives the same
     answers on the running example. *)
  let tree = Cascade_tree.build (paper_units paper_gains_g0) in
  check_float "postpone(1,9,32) = 300" 300.0
    (Cascade_tree.prefix_loss_binary_search tree Cascade_tree.Lt ~n:9 ~tau:32.0);
  check_float "full sweep" 1200.0
    (Cascade_tree.prefix_loss_binary_search tree Cascade_tree.Lt ~n:15 ~tau:1000.0)

let test_paper_example_invariants () =
  Cascade_tree.check_invariants (Cascade_tree.build (paper_units paper_gains_g0));
  Cascade_tree.check_invariants (Cascade_tree.build (paper_units (fun _ -> 1.0)))

(* ------------------------------------------------------------------ *)
(* Cascade tree unit tests *)

let test_tree_empty () =
  let tree = Cascade_tree.build [||] in
  check_int "no units" 0 (Cascade_tree.unit_count tree);
  check_float "no loss" 0.0 (Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n:5 ~tau:10.0);
  check_float "no total" 0.0 (Cascade_tree.total tree);
  check_int "depth 0" 0 (Cascade_tree.depth tree)

let test_tree_single () =
  let tree = Cascade_tree.build [| { Slack_units.uid = 2; slack = 5.0; gain = 3.0 } |] in
  let q mode n tau = Cascade_tree.prefix_loss tree mode ~n ~tau in
  check_float "lt miss" 0.0 (q Cascade_tree.Lt 2 5.0);
  check_float "lt hit" 3.0 (q Cascade_tree.Lt 2 5.1);
  check_float "le hit at boundary" 3.0 (q Cascade_tree.Le 2 5.0);
  check_float "le miss below" 0.0 (q Cascade_tree.Le 2 4.9);
  check_float "id excluded" 0.0 (q Cascade_tree.Lt 1 100.0)

let test_tree_duplicate_ids_merge () =
  (* Two units of the same query (a 2-level SLA) plus another query. *)
  let units =
    [|
      { Slack_units.uid = 0; slack = 5.0; gain = 100.0 };
      { Slack_units.uid = 0; slack = 10.0; gain = 50.0 };
      { Slack_units.uid = 1; slack = 7.0; gain = 30.0 };
    |]
  in
  let tree = Cascade_tree.build units in
  Cascade_tree.check_invariants tree;
  let q n tau = Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n ~tau in
  check_float "only first unit" 100.0 (q 0 6.0);
  check_float "both units of q0" 150.0 (q 0 11.0);
  check_float "all three" 180.0 (q 1 11.0);
  check_float "q0 partial + q1" 130.0 (q 1 8.0);
  check_float "total by id 0" 150.0 (Cascade_tree.prefix_total tree ~n:0)

let test_tree_equal_slacks () =
  (* Ties in the key must not confuse the split logic. *)
  let units =
    Array.init 8 (fun i ->
        { Slack_units.uid = i; slack = 10.0; gain = 1.0 })
  in
  let tree = Cascade_tree.build units in
  Cascade_tree.check_invariants tree;
  check_float "lt at tie" 0.0
    (Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n:7 ~tau:10.0);
  check_float "le at tie" 8.0
    (Cascade_tree.prefix_loss tree Cascade_tree.Le ~n:7 ~tau:10.0);
  check_float "lt above tie" 8.0
    (Cascade_tree.prefix_loss tree Cascade_tree.Lt ~n:7 ~tau:10.1)

let test_tree_depth_logarithmic () =
  let units =
    Array.init 1024 (fun i ->
        { Slack_units.uid = i; slack = Float.of_int i; gain = 1.0 })
  in
  let tree = Cascade_tree.build units in
  check_bool "depth <= log2 n + 1" true (Cascade_tree.depth tree <= 11)

(* ------------------------------------------------------------------ *)
(* Random instance generators *)

let gen_sla =
  QCheck.Gen.(
    let* n = 1 -- 3 in
    let* raw_bounds = list_repeat (n + 2) (float_range 1.0 150.0) in
    let* raw_gains = list_repeat (n + 2) (float_range 0.5 8.0) in
    let* penalty = float_range 0.0 4.0 in
    let bounds = List.sort_uniq Float.compare raw_bounds in
    let gains = List.rev (List.sort_uniq Float.compare raw_gains) in
    let k = min n (min (List.length bounds) (List.length gains)) in
    let levels =
      List.init k (fun i -> { Sla.bound = List.nth bounds i; gain = List.nth gains i })
    in
    return (Sla.make ~levels ~penalty))

let gen_query id =
  QCheck.Gen.(
    let* arrival = float_range 0.0 120.0 in
    let* size = float_range 0.1 40.0 in
    let* sla = gen_sla in
    return (Query.make ~id ~arrival ~size ~sla ()))

let gen_buffer =
  QCheck.Gen.(
    let* n = 1 -- 30 in
    let* queries = flatten_l (List.init n gen_query) in
    return (Array.of_list queries))

let arb_buffer =
  QCheck.make
    ~print:(fun qs ->
      Fmt.str "@[<v>%a@]" Fmt.(array ~sep:cut Query.pp) qs)
    gen_buffer

let now = 100.0

let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)

(* tau values that stress boundaries: exact slack values land on the
   Lt/Le edges. *)
let gen_range_tau n =
  QCheck.Gen.(
    let* m = 0 -- (n - 1) in
    let* n' = m -- (n - 1) in
    let* tau = float_range 0.0 400.0 in
    return (m, n', tau))

let arb_instance =
  QCheck.make
    ~print:(fun (qs, (m, n, tau)) ->
      Fmt.str "m=%d n=%d tau=%g@ %a" m n tau Fmt.(array ~sep:cut Query.pp) qs)
    QCheck.Gen.(
      let* qs = gen_buffer in
      let* rt = gen_range_tau (Array.length qs) in
      return (qs, rt))

let prop_postpone_matches_unit_oracle =
  QCheck.Test.make ~name:"tree postpone == unit-scan oracle" ~count:500 arb_instance
    (fun (qs, (m, n, tau)) ->
      let entries = Schedule.of_queries ~now qs in
      let tree = Sla_tree.of_entries ~now entries in
      close (Sla_tree.postpone tree ~m ~n ~tau)
        (Naive_whatif.postpone_by_units entries ~m ~n ~tau))

let prop_postpone_matches_recompute_oracle =
  QCheck.Test.make ~name:"tree postpone == profit-recompute oracle" ~count:500
    arb_instance
    (fun (qs, (m, n, tau)) ->
      let entries = Schedule.of_queries ~now qs in
      let tree = Sla_tree.of_entries ~now entries in
      close (Sla_tree.postpone tree ~m ~n ~tau)
        (Naive_whatif.postpone_by_recompute entries ~m ~n ~tau))

let prop_expedite_matches_unit_oracle =
  QCheck.Test.make ~name:"tree expedite == unit-scan oracle" ~count:500 arb_instance
    (fun (qs, (m, n, tau)) ->
      let entries = Schedule.of_queries ~now qs in
      let tree = Sla_tree.of_entries ~now entries in
      close (Sla_tree.expedite tree ~m ~n ~tau)
        (Naive_whatif.expedite_by_units entries ~m ~n ~tau))

let prop_expedite_matches_recompute_oracle =
  QCheck.Test.make ~name:"tree expedite == profit-recompute oracle" ~count:500
    arb_instance
    (fun (qs, (m, n, tau)) ->
      let entries = Schedule.of_queries ~now qs in
      let tree = Sla_tree.of_entries ~now entries in
      close (Sla_tree.expedite tree ~m ~n ~tau)
        (Naive_whatif.expedite_by_recompute entries ~m ~n ~tau))

let prop_additive_property =
  QCheck.Test.make ~name:"postpone(m,n) = postpone(0,n) - postpone(0,m-1)" ~count:300
    arb_instance
    (fun (qs, (m, n, tau)) ->
      let tree = Sla_tree.build ~now qs in
      let range = Sla_tree.postpone tree ~m ~n ~tau in
      let full = Sla_tree.postpone tree ~m:0 ~n ~tau in
      let prefix = if m = 0 then 0.0 else Sla_tree.postpone tree ~m:0 ~n:(m - 1) ~tau in
      close range (full -. prefix))

let prop_postpone_monotone_in_tau =
  QCheck.Test.make ~name:"postpone is monotone in tau" ~count:300
    QCheck.(pair arb_buffer (pair (QCheck.float_range 0.0 200.0) (QCheck.float_range 0.0 200.0)))
    (fun (qs, (t1, t2)) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      let tree = Sla_tree.build ~now qs in
      let n = Sla_tree.length tree - 1 in
      Sla_tree.postpone tree ~m:0 ~n ~tau:lo
      <= Sla_tree.postpone tree ~m:0 ~n ~tau:hi +. 1e-9)

let prop_cascading_equals_binary_search =
  (* Fractional cascading is a pure optimization: both traversals must
     agree on every question, in both modes. *)
  QCheck.Test.make ~name:"cascaded == O(log^2) binary-search traversal" ~count:300
    arb_instance
    (fun (qs, (_, n, tau)) ->
      let entries = Schedule.of_queries ~now qs in
      let units = Slack_units.of_schedule entries in
      let pos, neg = Slack_units.partition units in
      let tp = Cascade_tree.build pos and tn = Cascade_tree.build neg in
      List.for_all
        (fun (tree, mode) ->
          close
            (Cascade_tree.prefix_loss tree mode ~n ~tau)
            (Cascade_tree.prefix_loss_binary_search tree mode ~n ~tau))
        [ (tp, Cascade_tree.Lt); (tp, Cascade_tree.Le);
          (tn, Cascade_tree.Lt); (tn, Cascade_tree.Le) ])

let prop_invariants_hold =
  QCheck.Test.make ~name:"tree structural invariants" ~count:200 arb_buffer
    (fun qs ->
      let entries = Schedule.of_queries ~now qs in
      let units = Slack_units.of_schedule entries in
      let pos, neg = Slack_units.partition units in
      Cascade_tree.check_invariants (Cascade_tree.build pos);
      Cascade_tree.check_invariants (Cascade_tree.build neg);
      true)

let prop_unit_partition_signs =
  QCheck.Test.make ~name:"partition splits by slack sign" ~count:200 arb_buffer
    (fun qs ->
      let entries = Schedule.of_queries ~now qs in
      let units = Slack_units.of_schedule entries in
      let pos, neg = Slack_units.partition units in
      Array.for_all (fun u -> u.Slack_units.slack >= 0.0) pos
      && Array.for_all (fun u -> u.Slack_units.slack > 0.0) neg
      && Array.length pos + Array.length neg = Array.length units)

(* ------------------------------------------------------------------ *)
(* Facade unit tests *)

let mk_query ?(est = None) id arrival size bound gain =
  let sla = Sla.single_step ~bound ~gain in
  Query.make ?est_size:est ~id ~arrival ~size ~sla ()

let test_facade_basic_postpone () =
  (* Two queries back to back from t=0: q0 (size 10, deadline 15),
     q1 (size 10, deadline 25). Completions: 10 and 20. Slacks: 5 and 5. *)
  let qs = [| mk_query 0 0.0 10.0 15.0 1.0; mk_query 1 0.0 10.0 25.0 2.0 |] in
  let tree = Sla_tree.build ~now:0.0 qs in
  check_float "tau within both slacks" 0.0 (Sla_tree.postpone tree ~m:0 ~n:1 ~tau:5.0);
  check_float "tau kills both" 3.0 (Sla_tree.postpone tree ~m:0 ~n:1 ~tau:5.1);
  check_float "only q1" 2.0 (Sla_tree.postpone tree ~m:1 ~n:1 ~tau:5.1);
  check_float "zero tau" 0.0 (Sla_tree.postpone tree ~m:0 ~n:1 ~tau:0.0)

let test_facade_basic_expedite () =
  (* q0 already late: deadline 5 but completes at 10 (tardiness 5). *)
  let qs = [| mk_query 0 0.0 10.0 5.0 1.0; mk_query 1 0.0 10.0 50.0 1.0 |] in
  let tree = Sla_tree.build ~now:0.0 qs in
  check_float "not enough expedite" 0.0 (Sla_tree.expedite tree ~m:0 ~n:1 ~tau:4.9);
  check_float "exactly enough" 1.0 (Sla_tree.expedite tree ~m:0 ~n:1 ~tau:5.0);
  check_float "recovers only q0" 1.0 (Sla_tree.expedite tree ~m:0 ~n:1 ~tau:100.0)

let test_facade_bad_args () =
  let qs = [| mk_query 0 0.0 1.0 5.0 1.0 |] in
  let tree = Sla_tree.build ~now:0.0 qs in
  check_bool "bad range raises" true
    (match Sla_tree.postpone tree ~m:0 ~n:1 ~tau:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "negative tau raises" true
    (match Sla_tree.postpone tree ~m:0 ~n:0 ~tau:(-1.0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_facade_unit_counts () =
  (* One on-time 2-level query and one hopelessly late one. *)
  let sla2 =
    Sla.make ~levels:[ { bound = 100.0; gain = 2.0 }; { bound = 200.0; gain = 1.0 } ]
      ~penalty:0.0
  in
  let q0 = Query.make ~id:0 ~arrival:0.0 ~size:1.0 ~sla:sla2 () in
  let q1 = mk_query 1 0.0 1.0 0.5 1.0 in
  let tree = Sla_tree.build ~now:0.0 [| q0; q1 |] in
  let slack_n, tardy_n = Sla_tree.unit_counts tree in
  check_int "slack units" 2 slack_n;
  check_int "tardy units" 1 tardy_n

let test_facade_profit_at_stake () =
  let qs = [| mk_query 0 0.0 10.0 15.0 1.0; mk_query 1 0.0 10.0 25.0 2.0 |] in
  let tree = Sla_tree.build ~now:0.0 qs in
  check_float "stake prefix 0" 1.0 (Sla_tree.profit_at_stake tree ~n:0);
  check_float "stake total" 3.0 (Sla_tree.total_profit_at_stake tree);
  check_float "nothing recoverable" 0.0 (Sla_tree.total_recoverable_profit tree)

(* ------------------------------------------------------------------ *)
(* What-if helpers *)

let reorder_rush qs i =
  let n = Array.length qs in
  Array.init n (fun k ->
      if k = 0 then qs.(i)
      else if k <= i then qs.(k - 1)
      else qs.(k))

let prop_rush_net_gain_matches_brute_force =
  QCheck.Test.make ~name:"rush_net_gain == brute-force reschedule delta" ~count:300
    QCheck.(pair arb_buffer small_int)
    (fun (qs, raw_i) ->
      let n = Array.length qs in
      let i = raw_i mod n in
      let tree = Sla_tree.build ~now qs in
      let before = Schedule.scheduled_profit (Schedule.of_queries ~now qs) in
      let after =
        Schedule.scheduled_profit (Schedule.of_queries ~now (reorder_rush qs i))
      in
      close (What_if.rush_net_gain tree i) (after -. before))

let prop_insertion_delta_matches_brute_force =
  QCheck.Test.make ~name:"insertion_delta == brute-force insert delta" ~count:300
    QCheck.(triple arb_buffer small_int (QCheck.float_range 0.1 30.0))
    (fun (qs, raw_pos, size) ->
      let n = Array.length qs in
      let pos = raw_pos mod (n + 1) in
      let newcomer = mk_query 999 now size 40.0 3.0 in
      let tree = Sla_tree.build ~now qs in
      let inserted =
        Array.init (n + 1) (fun k ->
            if k < pos then qs.(k) else if k = pos then newcomer else qs.(k - 1))
      in
      let before = Schedule.scheduled_profit (Schedule.of_queries ~now qs) in
      let after = Schedule.scheduled_profit (Schedule.of_queries ~now inserted) in
      close (What_if.insertion_delta tree ~query:newcomer ~pos) (after -. before))

let test_best_rush_prefers_earliest_on_ties () =
  (* Identical queries: nothing improves, so position 0 must win. *)
  let qs = Array.init 5 (fun i -> mk_query i 0.0 1.0 100.0 1.0) in
  let tree = Sla_tree.build ~now:0.0 qs in
  match What_if.best_rush tree with
  | Some (0, g) -> check_float "no gain" 0.0 g
  | Some (i, _) -> Alcotest.failf "expected head, got %d" i
  | None -> Alcotest.fail "no answer"

let test_best_rush_picks_urgent () =
  (* q1 misses its deadline unless rushed; rushing it costs q0 nothing. *)
  let q0 = mk_query 0 0.0 10.0 100.0 1.0 in
  let q1 = mk_query 1 0.0 2.0 5.0 5.0 in
  let tree = Sla_tree.build ~now:0.0 [| q0; q1 |] in
  match What_if.best_rush tree with
  | Some (1, g) -> check_float "saves q1's 5" 5.0 g
  | Some (i, g) -> Alcotest.failf "expected 1, got %d (gain %g)" i g
  | None -> Alcotest.fail "no answer"

(* Buffers on which rushes pay and ties happen: estimation error, some
   zero estimates (the tau = 0 branch), and copies of one query. *)
let gen_rush_buffer =
  QCheck.Gen.(
    let* qs = gen_buffer in
    let* est_ratios =
      array_repeat (Array.length qs)
        (frequency [ (4, return 1.0); (2, float_range 0.3 3.0); (1, return 0.0) ])
    in
    let* copies = 0 -- 4 in
    let with_est =
      Array.mapi
        (fun i q ->
          Query.make ~id:q.Query.id ~arrival:q.Query.arrival ~size:q.Query.size
            ~est_size:(q.Query.size *. est_ratios.(i)) ~sla:q.Query.sla ())
        qs
    in
    return (Array.append with_est (Array.make copies with_est.(0))))

let prop_best_rush_matches_unpruned =
  QCheck.Test.make ~name:"pruned best_rush == unpruned (bitwise)" ~count:500
    (QCheck.make
       ~print:(fun qs -> Fmt.str "@[<v>%a@]" Fmt.(array ~sep:cut Query.pp) qs)
       gen_rush_buffer)
    (fun qs ->
      let tree = Sla_tree.build ~now qs in
      let pruned = What_if.best_rush tree
      and unpruned = Rush_oracle.best_rush tree in
      Rush_oracle.same pruned unpruned
      || QCheck.Test.fail_reportf "pruned %s, unpruned %s"
           (Rush_oracle.to_string pruned)
           (Rush_oracle.to_string unpruned))

let test_idle_server_profit () =
  let q = mk_query 0 50.0 10.0 20.0 4.0 in
  check_float "on time on idle server" 4.0 (What_if.idle_server_profit ~now:55.0 q);
  check_float "too late even idle" 0.0 (What_if.idle_server_profit ~now:65.0 q)

(* ------------------------------------------------------------------ *)
(* Expedite applications (footnote 4) *)

let test_recovery_curve () =
  (* One late query (tardiness 5) and one on-time query. *)
  let qs = [| mk_query 0 0.0 10.0 5.0 2.0; mk_query 1 0.0 10.0 50.0 1.0 |] in
  let tree = Sla_tree.build ~now:0.0 qs in
  let curve = What_if.recovery_curve tree ~taus:[ 1.0; 5.0; 100.0 ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "curve" [ (1.0, 0.0); (5.0, 2.0); (100.0, 2.0) ] curve

let prop_recovery_curve_monotone =
  QCheck.Test.make ~name:"recovery curve is non-decreasing" ~count:200 arb_buffer
    (fun qs ->
      let tree = Sla_tree.build ~now qs in
      let curve = What_if.recovery_curve tree ~taus:[ 1.0; 5.0; 20.0; 80.0; 300.0 ] in
      let rec mono = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono curve)

let test_best_maintenance_slot () =
  (* Two queries: q0 fragile (slack 2), q1 relaxed (slack 100). A
     10-unit pause before position 0 or 1 kills q0's or nothing:
     - p=0: postpones both -> loses q0's gain 3 (q1 survives);
     - p=1: postpones only q1 -> loses nothing;
     - p=2: after everything -> loses nothing; ties resolve late. *)
  let qs = [| mk_query 0 0.0 10.0 12.0 3.0; mk_query 1 0.0 10.0 120.0 1.0 |] in
  let tree = Sla_tree.build ~now:0.0 qs in
  (match What_if.best_maintenance_slot tree ~duration:10.0 with
  | Some (2, loss) -> check_float "free at the end" 0.0 loss
  | Some (p, l) -> Alcotest.failf "expected slot 2, got %d (loss %g)" p l
  | None -> Alcotest.fail "no slot");
  (* Must start by t=12: position 2 (start 20) is out; position 1
     (start 10) costs 0. *)
  (match What_if.best_maintenance_slot ~latest_start:12.0 tree ~duration:10.0 with
  | Some (1, loss) -> check_float "slot 1 free" 0.0 loss
  | Some (p, l) -> Alcotest.failf "expected slot 1, got %d (loss %g)" p l
  | None -> Alcotest.fail "no slot");
  (* Must start immediately: only position 0, losing q0's 3. *)
  match What_if.best_maintenance_slot ~latest_start:0.0 tree ~duration:10.0 with
  | Some (0, loss) -> check_float "q0 sacrificed" 3.0 loss
  | Some (p, l) -> Alcotest.failf "expected slot 0, got %d (loss %g)" p l
  | None -> Alcotest.fail "no slot"

let test_stall_impact () =
  (* Three queries with slacks 5, 15, 40 (gains 1 each). *)
  let qs =
    [|
      mk_query 0 0.0 10.0 15.0 1.0;
      mk_query 1 0.0 10.0 35.0 1.0;
      mk_query 2 0.0 10.0 70.0 1.0;
    |]
  in
  let tree = Sla_tree.build ~now:0.0 qs in
  let lost, recovered = What_if.stall_impact tree ~stall:20.0 ~catch_up:0.0 in
  check_float "stall 20 kills slacks 5 and 15" 2.0 lost;
  check_float "no catch-up" 0.0 recovered;
  let lost2, recovered2 = What_if.stall_impact tree ~stall:20.0 ~catch_up:10.0 in
  check_float "lost unchanged" 2.0 lost2;
  (* With 10 units of catch-up the net delay is 10: only slack 5 dies,
     so the slack-15 unit is clawed back. *)
  check_float "one unit recovered" 1.0 recovered2;
  let _, recovered3 = What_if.stall_impact tree ~stall:20.0 ~catch_up:50.0 in
  check_float "full catch-up recovers all" 2.0 recovered3

(* ------------------------------------------------------------------ *)
(* Regressions: empty-buffer probes, maintenance-slot tie-breaking and
   the pre-sized unit expansion. *)

let test_empty_tree_probes () =
  let tree = Sla_tree.build ~now:0.0 [||] in
  check_int "length" 0 (Sla_tree.length tree);
  check_float "postpone" 0.0 (Sla_tree.postpone tree ~m:0 ~n:(-1) ~tau:5.0);
  check_float "expedite" 0.0 (Sla_tree.expedite tree ~m:0 ~n:(-1) ~tau:5.0);
  check_float "any range answers 0" 0.0 (Sla_tree.postpone tree ~m:3 ~n:7 ~tau:1.0);
  check_float "insertion into empty = own profit" 2.0
    (What_if.insertion_delta tree ~query:(mk_query 0 0.0 1.0 100.0 2.0) ~pos:0);
  check_bool "negative tau still raises" true
    (match Sla_tree.postpone tree ~m:0 ~n:(-1) ~tau:(-1.0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_empty_tree_whatif () =
  (* The applications need no emptiness guards of their own: every
     question over an empty buffer answers 0 / None through the probe
     layer. *)
  let tree = Sla_tree.build ~now:0.0 [||] in
  check_bool "best_rush none" true (What_if.best_rush tree = None);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "recovery curve all zero"
    [ (1.0, 0.0); (10.0, 0.0) ]
    (What_if.recovery_curve tree ~taus:[ 1.0; 10.0 ]);
  let lost, recovered = What_if.stall_impact tree ~stall:5.0 ~catch_up:2.0 in
  check_float "nothing lost" 0.0 lost;
  check_float "nothing recovered" 0.0 recovered;
  match What_if.best_maintenance_slot tree ~duration:10.0 with
  | Some (0, loss) -> check_float "slot 0 free" 0.0 loss
  | Some (p, l) -> Alcotest.failf "expected slot 0, got %d (loss %g)" p l
  | None -> Alcotest.fail "no slot"

let test_maintenance_slot_latest_on_ties () =
  (* Every query is so relaxed that any pause loses nothing: all n+1
     slots tie at 0.0 and the latest must win (maintenance as late as
     possible). *)
  let qs = Array.init 4 (fun i -> mk_query i 0.0 1.0 1000.0 1.0) in
  let tree = Sla_tree.build ~now:0.0 qs in
  (match What_if.best_maintenance_slot tree ~duration:2.0 with
  | Some (4, loss) -> check_float "latest slot" 0.0 loss
  | Some (p, l) -> Alcotest.failf "expected slot 4, got %d (loss %g)" p l
  | None -> Alcotest.fail "no slot");
  (* With a latest-start cap the latest ALLOWED slot wins the tie:
     unit sizes put slot p's start at p, so 2.5 allows slots 0..2. *)
  match What_if.best_maintenance_slot ~latest_start:2.5 tree ~duration:2.0 with
  | Some (2, loss) -> check_float "latest allowed slot" 0.0 loss
  | Some (p, l) -> Alcotest.failf "expected slot 2, got %d (loss %g)" p l
  | None -> Alcotest.fail "no slot"

let prop_maintenance_slot_matches_reference =
  (* The downto/strict-< scan equals the spec: minimum loss, latest
     slot on ties. Both sides compute losses by the same expression, so
     comparison is exact — no float-equality tie-break is involved. *)
  QCheck.Test.make ~name:"maintenance slot == latest-argmin reference" ~count:300
    QCheck.(pair arb_buffer (QCheck.float_range 0.0 60.0))
    (fun (qs, duration) ->
      let tree = Sla_tree.build ~now qs in
      let n = Sla_tree.length tree in
      let loss p =
        if p >= n then 0.0
        else Sla_tree.postpone tree ~m:p ~n:(n - 1) ~tau:duration
      in
      let best = ref (0, loss 0) in
      for p = 1 to n do
        let l = loss p in
        let _, bl = !best in
        if l <= bl then best := (p, l)
      done;
      What_if.best_maintenance_slot tree ~duration = Some !best)

(* The historical list-based unit expansion, kept as the reference the
   pre-sized two-pass implementation must match byte for byte. *)
let reference_units entries =
  let units = ref [] in
  Array.iteri
    (fun pos e ->
      let comps, _ = Sla.decompose e.Schedule.query.Query.sla in
      List.iter
        (fun { Sla.comp_bound; comp_gain } ->
          units :=
            {
              Slack_units.uid = pos;
              slack = Schedule.slack e ~bound:comp_bound;
              gain = comp_gain;
            }
            :: !units)
        comps)
    entries;
  Array.of_list (List.rev !units)

let unit_eq a b =
  a.Slack_units.uid = b.Slack_units.uid
  && Int64.equal
       (Int64.bits_of_float a.Slack_units.slack)
       (Int64.bits_of_float b.Slack_units.slack)
  && Int64.equal
       (Int64.bits_of_float a.Slack_units.gain)
       (Int64.bits_of_float b.Slack_units.gain)

let units_eq a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i u -> if not (unit_eq u b.(i)) then ok := false) a;
       !ok
     end

let prop_slack_units_presized_identical =
  QCheck.Test.make ~name:"pre-sized expansion == list-based reference" ~count:300
    arb_buffer
    (fun qs ->
      let entries = Schedule.of_queries ~now qs in
      let units = Slack_units.of_schedule entries in
      let refu = reference_units entries in
      let pos, neg = Slack_units.partition units in
      let rpos =
        Array.of_list
          (List.filter
             (fun u -> u.Slack_units.slack >= 0.0)
             (Array.to_list refu))
      in
      let rneg =
        Array.of_list
          (List.filter_map
             (fun u ->
               if u.Slack_units.slack < 0.0 then
                 Some { u with Slack_units.slack = -.u.Slack_units.slack }
               else None)
             (Array.to_list refu))
      in
      units_eq units refu && units_eq pos rpos && units_eq neg rneg)

(* ------------------------------------------------------------------ *)
(* Table 7: the greedy counterexample, and the offline never-worse
   property (Sec 8.2). *)

let table7_queries () =
  [|
    mk_query 0 0.0 1.0 1.0 1.0;
    mk_query 1 0.0 0.5 1.0 0.6;
    mk_query 2 0.0 0.5 1.0 0.6;
  |]

let test_table7_greedy_keeps_q1 () =
  let tree = Sla_tree.build ~now:0.0 (table7_queries ()) in
  (* Rushing q2 or q3 loses q1's 1.0 for a 0.6 gain: net negative. *)
  check_bool "rush q2 negative" true (What_if.rush_net_gain tree 1 < 0.0);
  check_bool "rush q3 negative" true (What_if.rush_net_gain tree 2 < 0.0);
  match What_if.best_rush tree with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "greedy should keep the original head"

let offline_greedy_profit qs ~now:t0 =
  (* Repeatedly execute the best_rush pick; returns realized profit. *)
  let remaining = ref (Array.to_list qs) in
  let t = ref t0 in
  let profit = ref 0.0 in
  while !remaining <> [] do
    let buf = Array.of_list !remaining in
    let tree = Sla_tree.build ~now:!t buf in
    let i = match What_if.best_rush tree with Some (i, _) -> i | None -> 0 in
    let q = buf.(i) in
    t := !t +. q.Query.size;
    profit := !profit +. Query.profit_at q ~completion:!t;
    remaining := List.filteri (fun k _ -> k <> i) !remaining
  done;
  !profit

let test_table7_greedy_not_optimal () =
  let qs = table7_queries () in
  let greedy = offline_greedy_profit qs ~now:0.0 in
  check_float "greedy realizes 1.0" 1.0 greedy;
  (* The optimal order (q2, q3, q1) realizes 1.2. *)
  let optimal = [| qs.(1); qs.(2); qs.(0) |] in
  let opt_profit = Schedule.scheduled_profit (Schedule.of_queries ~now:0.0 optimal) in
  check_float "optimal realizes 1.2" 1.2 opt_profit;
  check_bool "greedy is suboptimal here" true (greedy < opt_profit)

let prop_offline_greedy_never_worse =
  (* The paper's induction claim: offline, SLA-tree scheduling earns at
     least the original schedule's profit. Requires est = actual, which
     our generator guarantees. *)
  QCheck.Test.make ~name:"offline greedy >= original schedule" ~count:200 arb_buffer
    (fun qs ->
      let original = Schedule.scheduled_profit (Schedule.of_queries ~now qs) in
      offline_greedy_profit qs ~now >= original -. 1e-6)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ( "paper-example",
        [
          Alcotest.test_case "Fig 6: 1/0 postpone(1,9,32)=2" `Quick test_paper_example_10;
          Alcotest.test_case "Fig 7: g/0 postpone(1,9,32)=300" `Quick test_paper_example_g0;
          Alcotest.test_case "Fig 7: cumulative profits" `Quick test_paper_example_totals;
          Alcotest.test_case "more questions" `Quick test_paper_example_more_questions;
          Alcotest.test_case "Figs 9-10: general profit model" `Quick
            test_paper_example_general_model;
          Alcotest.test_case "O(log^2) variant agrees" `Quick
            test_paper_example_log2_variant;
          Alcotest.test_case "invariants" `Quick test_paper_example_invariants;
        ] );
      ( "cascade-tree",
        [
          Alcotest.test_case "empty" `Quick test_tree_empty;
          Alcotest.test_case "single unit" `Quick test_tree_single;
          Alcotest.test_case "duplicate ids merge" `Quick test_tree_duplicate_ids_merge;
          Alcotest.test_case "equal slacks" `Quick test_tree_equal_slacks;
          Alcotest.test_case "depth logarithmic" `Quick test_tree_depth_logarithmic;
          qtest prop_cascading_equals_binary_search;
          qtest prop_invariants_hold;
          qtest prop_unit_partition_signs;
          qtest prop_slack_units_presized_identical;
        ] );
      ( "oracle-equivalence",
        [
          qtest prop_postpone_matches_unit_oracle;
          qtest prop_postpone_matches_recompute_oracle;
          qtest prop_expedite_matches_unit_oracle;
          qtest prop_expedite_matches_recompute_oracle;
          qtest prop_additive_property;
          qtest prop_postpone_monotone_in_tau;
        ] );
      ( "facade",
        [
          Alcotest.test_case "postpone basics" `Quick test_facade_basic_postpone;
          Alcotest.test_case "expedite basics" `Quick test_facade_basic_expedite;
          Alcotest.test_case "bad arguments" `Quick test_facade_bad_args;
          Alcotest.test_case "unit counts" `Quick test_facade_unit_counts;
          Alcotest.test_case "profit at stake" `Quick test_facade_profit_at_stake;
          Alcotest.test_case "empty buffer probes" `Quick test_empty_tree_probes;
        ] );
      ( "what-if",
        [
          qtest prop_rush_net_gain_matches_brute_force;
          qtest prop_insertion_delta_matches_brute_force;
          Alcotest.test_case "ties keep head" `Quick test_best_rush_prefers_earliest_on_ties;
          Alcotest.test_case "urgent query rushed" `Quick test_best_rush_picks_urgent;
          qtest prop_best_rush_matches_unpruned;
          Alcotest.test_case "idle server profit" `Quick test_idle_server_profit;
        ] );
      ( "expedite-apps",
        [
          Alcotest.test_case "recovery curve" `Quick test_recovery_curve;
          qtest prop_recovery_curve_monotone;
          Alcotest.test_case "maintenance slot" `Quick test_best_maintenance_slot;
          Alcotest.test_case "stall impact" `Quick test_stall_impact;
          Alcotest.test_case "empty buffer what-ifs" `Quick test_empty_tree_whatif;
          Alcotest.test_case "maintenance ties resolve late" `Quick
            test_maintenance_slot_latest_on_ties;
          qtest prop_maintenance_slot_matches_reference;
        ] );
      ( "greedy-limits",
        [
          Alcotest.test_case "Table 7: greedy keeps q1" `Quick test_table7_greedy_keeps_q1;
          Alcotest.test_case "Table 7: greedy not optimal" `Quick
            test_table7_greedy_not_optimal;
          qtest prop_offline_greedy_never_worse;
        ] );
    ]
