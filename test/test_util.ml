(* Tests for the utility substrate: PRNG, heaps, stats, histogram and
   array searches. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Prng.float a) (Prng.float b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.float a = Prng.float b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  let xs = Array.init 32 (fun _ -> Prng.float parent) in
  let ys = Array.init 32 (fun _ -> Prng.float child) in
  check_bool "split streams differ" true (xs <> ys)

let test_prng_split_key_no_perturbation () =
  (* The whole point of [split_key]: taking a keyed child must not
     shift a single draw of the parent — a component gated behind a
     flag (fault injection) can take its stream without perturbing
     the always-on workload stream. *)
  let a = Prng.create 7 and b = Prng.create 7 in
  let _child = Prng.split_key b ~key:3 in
  for _ = 1 to 64 do
    check_float "parent stream untouched" (Prng.float a) (Prng.float b)
  done

let test_prng_split_key_streams () =
  let parent = Prng.create 7 in
  let draw key = Array.init 16 (fun _ -> Prng.float (Prng.split_key parent ~key)) in
  check_bool "same key reproduces" true (draw 5 = draw 5);
  check_bool "distinct keys diverge" true (draw 1 <> draw 2);
  check_bool "child differs from parent" true
    (draw 0 <> Array.init 16 (fun _ -> Prng.float (Prng.copy parent)))

let test_prng_copy () =
  let a = Prng.create 11 in
  ignore (Prng.float a);
  let b = Prng.copy a in
  check_float "copies continue identically" (Prng.float a) (Prng.float b)

let test_prng_float_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 10_000 do
    let x = Prng.float rng in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_float_pos_range () =
  let rng = Prng.create 4 in
  for _ = 1 to 10_000 do
    let x = Prng.float_pos rng in
    check_bool "in (0,1]" true (x > 0.0 && x <= 1.0)
  done

let test_prng_int_range () =
  let rng = Prng.create 5 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Prng.int rng 10 in
    check_bool "in range" true (k >= 0 && k < 10);
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter (fun c -> check_bool "roughly uniform" true (c > 700 && c < 1300)) counts

let test_prng_int_invalid () =
  let rng = Prng.create 6 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_uniform_mean () =
  let rng = Prng.create 8 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float rng
  done;
  let mean = !acc /. Float.of_int n in
  check_bool "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_prng_exponential_mean () =
  let rng = Prng.create 9 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential rng ~mean:20.0
  done;
  let mean = !acc /. Float.of_int n in
  check_bool "mean near 20" true (Float.abs (mean -. 20.0) < 0.5)

let test_prng_gaussian_moments () =
  let rng = Prng.create 10 in
  let n = 100_000 in
  let s = Stats.create () in
  for _ = 1 to n do
    Stats.add s (Prng.gaussian rng ~mu:1.0 ~sigma:2.0)
  done;
  check_bool "mean near 1" true (Float.abs (Stats.mean s -. 1.0) < 0.05);
  check_bool "sd near 2" true (Float.abs (Stats.stddev s -. 2.0) < 0.05)

let test_prng_pareto_support () =
  let rng = Prng.create 12 in
  for _ = 1 to 10_000 do
    let x = Prng.pareto rng ~x_min:1.0 ~alpha:1.0 in
    check_bool "x >= x_min" true (x >= 1.0)
  done

let test_prng_pareto_tail () =
  (* P(X > 10) = (x_min/10)^alpha = 0.1 for alpha = 1. *)
  let rng = Prng.create 13 in
  let n = 100_000 in
  let above = ref 0 in
  for _ = 1 to n do
    if Prng.pareto rng ~x_min:1.0 ~alpha:1.0 > 10.0 then incr above
  done;
  let frac = Float.of_int !above /. Float.of_int n in
  check_bool "tail mass near 0.1" true (Float.abs (frac -. 0.1) < 0.01)

let test_prng_shuffle_permutes () =
  let rng = Prng.create 14 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Prng.shuffle_in_place rng b;
  Array.sort Int.compare b;
  Alcotest.(check (array int)) "same multiset" a b

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_empty () =
  let h = Heap.create Int.compare in
  check_bool "empty" true (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check_bool "peek none" true (Heap.peek h = None);
  check_bool "pop none" true (Heap.pop h = None)

let test_heap_singleton () =
  let h = Heap.create Int.compare in
  Heap.push h 42;
  check_int "peek" 42 (Heap.peek_exn h);
  check_int "pop" 42 (Heap.pop_exn h);
  check_bool "empty after" true (Heap.is_empty h)

let test_heap_sorts () =
  let rng = Prng.create 21 in
  let xs = Array.init 1000 (fun _ -> Prng.int rng 10_000) in
  let h = Heap.create Int.compare in
  Array.iter (Heap.push h) xs;
  let out = Array.init 1000 (fun _ -> Heap.pop_exn h) in
  check_bool "ascending" true (Arrayx.is_sorted Int.compare out);
  let sorted = Array.copy xs in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" sorted out

let test_heap_duplicates () =
  let h = Heap.create Int.compare in
  List.iter (Heap.push h) [ 5; 1; 5; 1; 5 ];
  let out = List.init 5 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "dups preserved" [ 1; 1; 5; 5; 5 ] out

let test_heap_interleaved () =
  let h = Heap.create Int.compare in
  Heap.push h 3;
  Heap.push h 1;
  check_int "min" 1 (Heap.pop_exn h);
  Heap.push h 0;
  Heap.push h 2;
  check_int "new min" 0 (Heap.pop_exn h);
  check_int "next" 2 (Heap.pop_exn h);
  check_int "last" 3 (Heap.pop_exn h)

let test_heap_exn_on_empty () =
  let h = Heap.create Int.compare in
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h));
  Alcotest.check_raises "peek_exn" (Invalid_argument "Heap.peek_exn: empty heap")
    (fun () -> ignore (Heap.peek_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create Int.compare in
      List.iter (Heap.push h) xs;
      let out = List.init (List.length xs) (fun _ -> Heap.pop_exn h) in
      out = List.sort Int.compare xs)

(* A popped element is not pinned by the backing array: its vacated
   slot holds the filler, the first element ever pushed. *)
let test_heap_pop_unpins () =
  let h = Heap.create (fun a b -> Int.compare !a !b) in
  let w = Weak.create 1 in
  let[@inline never] push_watched () =
    let x = ref 1 in
    Weak.set w 0 (Some x);
    Heap.push h x
  in
  Heap.push h (ref 0);
  push_watched ();
  check_int "filler first" 0 !(Heap.pop_exn h);
  ignore (Sys.opaque_identity (Heap.pop_exn h));
  Gc.full_major ();
  check_bool "popped element collected" true (Weak.get w 0 = None);
  (* [h] stays live across the collection. *)
  check_bool "empty" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Iheap *)

(* Random inserts, re-keys and removals over at most 64 ids, against a
   list of (key, id) members kept sorted by key, then id. Keys come
   from a set of eight, so equal keys are common. After every step the
   heap's minimum and its id, [mem] of every id, and each member's slot
   must agree with the model. *)
let prop_iheap_matches_sorted_model =
  QCheck.Test.make ~name:"iheap agrees with sorted-list model" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 200)
        (triple (int_bound 3) (int_bound 63) (int_bound 7)))
    (fun ops ->
      let h = Iheap.create () in
      let model = ref [] in
      let put id key =
        model :=
          List.sort compare
            ((key, id) :: List.filter (fun (_, i) -> i <> id) !model)
      in
      let agrees () =
        (match !model with
        | [] -> h.Iheap.len = 0
        | (key, id) :: _ -> h.Iheap.keys.(0) = key && h.Iheap.ids.(0) = id)
        && h.Iheap.len = List.length !model
        && List.for_all
             (fun id ->
               Iheap.mem h id = List.exists (fun (_, i) -> i = id) !model)
             (List.init 64 Fun.id)
        && List.for_all
             (fun (key, id) ->
               let s = h.Iheap.slot.(id) in
               s >= 0 && s < h.Iheap.len
               && h.Iheap.ids.(s) = id
               && h.Iheap.keys.(s) = key)
             !model
      in
      List.for_all
        (fun (op, id, k) ->
          let key = Float.of_int k /. 2.0 in
          (match op with
          | 0 | 1 ->
            (* insert, or re-key a member *)
            Iheap.set h id key;
            put id key
          | 2 ->
            (* re-key a member chosen by position in the model *)
            if !model <> [] then begin
              let _, m = List.nth !model (id mod List.length !model) in
              Iheap.set h m key;
              put m key
            end
          | _ ->
            Iheap.remove h id;
            model := List.filter (fun (_, i) -> i <> id) !model);
          agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Deque *)

let test_deque_fifo () =
  let d = Deque.create () in
  check_bool "empty" true (Deque.is_empty d);
  List.iter (Deque.push_back d) [ 1; 2; 3 ];
  check_int "length" 3 (Deque.length d);
  check_bool "peek" true (Deque.peek_front d = Some 1);
  check_int "pop 1" 1 (Deque.pop_front d);
  check_int "pop 2" 2 (Deque.pop_front d);
  Deque.push_back d 4;
  check_int "pop 3" 3 (Deque.pop_front d);
  check_int "pop 4" 4 (Deque.pop_front d);
  check_bool "drained" true (Deque.is_empty d);
  Alcotest.check_raises "pop empty"
    (Invalid_argument "Deque.pop_front: empty deque") (fun () ->
      ignore (Deque.pop_front d))

let test_deque_wraparound () =
  (* Small capacity so the ring's head passes the physical end many
     times; order must survive the wraps and the mid-life grow. *)
  let d = Deque.create ~capacity:4 () in
  let next = ref 0 and expected = ref 0 in
  for round = 1 to 50 do
    for _ = 1 to 3 do
      Deque.push_back d !next;
      incr next
    done;
    let drain = if round mod 7 = 0 then 1 else 3 in
    for _ = 1 to min drain (Deque.length d) do
      check_int "fifo across wraps" !expected (Deque.pop_front d);
      incr expected
    done
  done;
  Alcotest.(check (list int))
    "suffix intact"
    (List.init (!next - !expected) (fun i -> !expected + i))
    (Deque.to_list d)

let test_deque_remove () =
  let d = Deque.create ~capacity:2 () in
  List.iter (Deque.push_back d) [ 10; 11; 12; 13; 14 ];
  check_int "remove middle" 12 (Deque.remove d 2);
  check_int "remove front" 10 (Deque.remove d 0);
  check_int "remove back" 14 (Deque.remove d 2);
  Alcotest.(check (list int)) "order preserved" [ 11; 13 ] (Deque.to_list d);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Deque.remove: index out of bounds") (fun () ->
      ignore (Deque.remove d 2))

let test_deque_filter_in_place () =
  let d = Deque.create ~capacity:3 () in
  (* Pop twice first so the live region straddles the physical end. *)
  List.iter (Deque.push_back d) [ 90; 91; 1; 2; 3; 4; 5; 6 ];
  check_int "pre-pop" 90 (Deque.pop_front d);
  check_int "pre-pop" 91 (Deque.pop_front d);
  let removed = Deque.filter_in_place d ~f:(fun v -> v mod 2 = 0) in
  Alcotest.(check (list int)) "removed front-to-back" [ 1; 3; 5 ] removed;
  Alcotest.(check (list int)) "survivors in order" [ 2; 4; 6 ] (Deque.to_list d);
  let none = Deque.filter_in_place d ~f:(fun _ -> true) in
  Alcotest.(check (list int)) "keep-all removes nothing" [] none

(* Fuzz the deque against a plain-list oracle while mirroring the
   simulator's use: a running "work left" total maintained
   incrementally on push/pop/remove/filter must always equal the sum
   of the live elements, and [to_array] must read the oracle's list
   after every operation. Ops are (code, value): 0-2 push, 3 pop,
   4 remove, 5 filter. The deque starts at capacity 2. *)
let deque_agrees_with_oracle ops =
  let d = Deque.create ~capacity:2 () in
  let oracle = ref [] in
  let backlog = ref 0 in
  let ok = ref true in
  let expect b = if not b then ok := false in
  List.iter
    (fun (op, x) ->
      (match op with
      | 0 | 1 | 2 ->
        Deque.push_back d x;
        oracle := !oracle @ [ x ];
        backlog := !backlog + x
      | 3 -> (
        match !oracle with
        | [] -> expect (Deque.is_empty d)
        | hd :: tl ->
          expect (Deque.pop_front d = hd);
          oracle := tl;
          backlog := !backlog - hd)
      | 4 ->
        if !oracle <> [] then begin
          let i = x mod List.length !oracle in
          let v = List.nth !oracle i in
          expect (Deque.remove d i = v);
          oracle := List.filteri (fun j _ -> j <> i) !oracle;
          backlog := !backlog - v
        end
      | _ ->
        let keep v = v mod 3 <> x mod 3 in
        let removed = Deque.filter_in_place d ~f:keep in
        expect (removed = List.filter (fun v -> not (keep v)) !oracle);
        oracle := List.filter keep !oracle;
        List.iter (fun v -> backlog := !backlog - v) removed);
      expect (Array.to_list (Deque.to_array d) = !oracle))
    ops;
  !ok
  && Deque.to_list d = !oracle
  && Deque.length d = List.length !oracle
  && Deque.fold d ~init:0 ~f:( + ) = !backlog

let prop_deque_matches_list_oracle =
  QCheck.Test.make ~name:"deque agrees with list oracle (incl. work-left)"
    ~count:300
    QCheck.(list (pair (int_bound 5) (int_bound 100)))
    deque_agrees_with_oracle

(* A ring wrapped across its physical end, well past any short-copy
   length: [a] pushes grow it to [cap], the least power of two >= [a];
   [b] pops move the head to [b]; [c] pushes with
   [a + c > cap >= a - b + c] then fill it across the end without
   growing it. The tail, mostly removes, copies the wrapped ring and
   shifts runs on both sides of the end: the blits, and the
   element-wise moves of a run that crosses it. *)
let wrapped_ops =
  let op =
    QCheck.Gen.(
      pair
        (frequency [ (1, int_range 0 3); (4, return 4); (1, return 5) ])
        (int_bound 1000))
  in
  QCheck.make
    ~print:(fun ((a, b, c), tail) ->
      Printf.sprintf "%d pushes, %d pops, %d pushes, then %s" a b c
        QCheck.Print.(list (pair int int) tail))
    QCheck.Gen.(
      int_range 17 200 >>= fun a ->
      let cap = ref 2 in
      while !cap < a do
        cap := 2 * !cap
      done;
      let cap = !cap in
      int_range 1 (a - 1) >>= fun b ->
      int_range (cap - a + 1) (cap - a + b) >>= fun c ->
      list_size (int_range 0 80) op >|= fun tail -> ((a, b, c), tail))

let prop_deque_wrapped_matches_list_oracle =
  QCheck.Test.make ~name:"wrapped deque agrees with list oracle" ~count:300
    wrapped_ops (fun ((a, b, c), tail) ->
      let push i = (0, i) and pop = (3, 0) in
      deque_agrees_with_oracle
        (List.init a push
        @ List.init b (fun _ -> pop)
        @ List.init c push @ tail))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  check_bool "mean nan" true (Float.is_nan (Stats.mean s))

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.0;
  check_float "mean" 3.0 (Stats.mean s);
  check_bool "variance nan" true (Float.is_nan (Stats.variance s))

let test_stats_known_values () =
  let s = Stats.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean s);
  (* Sample variance with n-1: 32/7. *)
  check_float "variance" (32.0 /. 7.0) (Stats.variance s);
  check_float "min" 2.0 (Stats.min_value s);
  check_float "max" 9.0 (Stats.max_value s);
  check_float "total" 40.0 (Stats.total s)

let test_stats_merge () =
  let a = Stats.of_array [| 1.0; 2.0; 3.0 |] in
  let b = Stats.of_array [| 10.0; 20.0 |] in
  let m = Stats.merge a b in
  let direct = Stats.of_array [| 1.0; 2.0; 3.0; 10.0; 20.0 |] in
  check_float "merged mean" (Stats.mean direct) (Stats.mean m);
  check_float "merged var" (Stats.variance direct) (Stats.variance m);
  check_int "merged count" 5 (Stats.count m)

let test_stats_merge_empty () =
  let a = Stats.create () in
  let b = Stats.of_array [| 1.0; 2.0 |] in
  check_float "empty+b mean" 1.5 (Stats.mean (Stats.merge a b));
  check_float "b+empty mean" 1.5 (Stats.mean (Stats.merge b a))

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0)

let prop_stats_mean_matches_direct =
  QCheck.Test.make ~name:"welford mean equals direct mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let direct = Array.fold_left ( +. ) 0.0 arr /. Float.of_int (Array.length arr) in
      Float.abs (Stats.mean_of_array arr -. direct) < 1e-6 *. (1.0 +. Float.abs direct))

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_linear_binning () =
  let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 0.0; 0.5; 1.5; 9.99 ];
  let counts = Histogram.counts h in
  check_int "bin0" 2 counts.(0);
  check_int "bin1" 1 counts.(1);
  check_int "bin9" 1 counts.(9);
  check_int "total" 4 (Histogram.total h)

let test_histogram_overflow_underflow () =
  let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:1.0 ~bins:2 in
  List.iter (Histogram.add h) [ -1.0; 0.5; 2.0; 3.0 ];
  check_int "under" 1 (Histogram.underflow h);
  check_int "over" 2 (Histogram.overflow h)

let test_histogram_log_binning () =
  let h = Histogram.create ~scale:Histogram.Log10 ~lo:1.0 ~hi:1000.0 ~bins:3 in
  List.iter (Histogram.add h) [ 1.0; 5.0; 50.0; 500.0 ];
  let counts = Histogram.counts h in
  check_int "decade 1" 2 counts.(0);
  check_int "decade 2" 1 counts.(1);
  check_int "decade 3" 1 counts.(2)

let test_histogram_log_nonpositive () =
  let h = Histogram.create ~scale:Histogram.Log10 ~lo:1.0 ~hi:10.0 ~bins:2 in
  Histogram.add h 0.0;
  Histogram.add h (-5.0);
  check_int "nonpositive to underflow" 2 (Histogram.underflow h)

let test_histogram_bounds () =
  let h = Histogram.create ~scale:Histogram.Log10 ~lo:1.0 ~hi:100.0 ~bins:2 in
  let a, b = Histogram.bin_bounds h 0 in
  check_float "first decade lo" 1.0 a;
  check_float "first decade hi" 10.0 b

let test_histogram_invalid () =
  Alcotest.check_raises "log lo<=0"
    (Invalid_argument "Histogram.create: log scale needs lo > 0") (fun () ->
      ignore (Histogram.create ~scale:Histogram.Log10 ~lo:0.0 ~hi:1.0 ~bins:2))

let test_histogram_merge () =
  let mk () = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:10.0 ~bins:5 in
  let a = mk () and b = mk () in
  List.iter (Histogram.add a) [ 1.0; 3.0; -1.0; 42.0 ];
  List.iter (Histogram.add b) [ 1.5; 9.0; -2.0 ];
  let m = Histogram.merge a b in
  check_int "total" 7 (Histogram.total m);
  check_int "underflow" 2 (Histogram.underflow m);
  check_int "overflow" 1 (Histogram.overflow m);
  let ca = Histogram.counts a and cb = Histogram.counts b in
  let cm = Histogram.counts m in
  Array.iteri (fun i c -> check_int (Fmt.str "bin %d" i) (ca.(i) + cb.(i)) c) cm;
  (* Inputs are untouched. *)
  check_int "a unchanged" 4 (Histogram.total a);
  check_int "b unchanged" 3 (Histogram.total b)

let test_histogram_merge_mismatch () =
  let a = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:10.0 ~bins:5 in
  let wrong_bins = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:10.0 ~bins:4 in
  let wrong_scale = Histogram.create ~scale:Histogram.Log10 ~lo:1.0 ~hi:10.0 ~bins:5 in
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "bins" true (raises (fun () -> ignore (Histogram.merge a wrong_bins)));
  check_bool "scale" true (raises (fun () -> ignore (Histogram.merge a wrong_scale)))

let test_histogram_reset () =
  let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 1.0; -1.0; 42.0 ];
  Histogram.reset h;
  check_int "total" 0 (Histogram.total h);
  check_int "underflow" 0 (Histogram.underflow h);
  check_int "overflow" 0 (Histogram.overflow h);
  check_bool "percentile NaN when empty" true
    (Float.is_nan (Histogram.percentile h 50.0))

let test_histogram_percentile_basic () =
  let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 0 to 99 do
    Histogram.add h (Float.of_int i +. 0.5)
  done;
  (* With one sample per unit-wide bin, any percentile is within one
     bin width of the exact sorted-sample answer. *)
  List.iter
    (fun p ->
      let exact = Stats.percentile (Array.init 100 (fun i -> Float.of_int i +. 0.5)) p in
      let est = Histogram.percentile h p in
      check_bool (Fmt.str "p%.0f within a bin" p) true (Float.abs (est -. exact) <= 1.0))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]

(* Fuzz: the binned percentile lands in the same bin as the nearest-rank
   order statistic, i.e. within one bin width of it. (A linear-interpolation
   oracle would be wrong here: with sparse samples it interpolates across
   gaps far wider than a bin, which the histogram cannot see.) *)
let prop_histogram_percentile_oracle =
  QCheck.Test.make ~name:"histogram percentile tracks nearest-rank oracle"
    ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let xs = List.map Float.abs xs in
      let p = Float.max p 1e-6 in
      let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:100.0 ~bins:50 in
      List.iter (Histogram.add h) xs;
      let sorted = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length sorted in
      let target = p /. 100.0 *. Float.of_int n in
      let k = Int.min n (Int.max 1 (Float.to_int (Float.ceil target))) in
      let exact = sorted.(k - 1) in
      let est = Histogram.percentile h p in
      let bin_width = 100.0 /. 50.0 in
      Float.abs (est -. exact) <= bin_width)

(* ------------------------------------------------------------------ *)
(* Arrayx *)

let test_find_last_leq () =
  let a = [| 1; 3; 5; 7 |] in
  check_int "below all" (-1) (Arrayx.find_last_leq Int.compare a 0);
  check_int "exact first" 0 (Arrayx.find_last_leq Int.compare a 1);
  check_int "between" 1 (Arrayx.find_last_leq Int.compare a 4);
  check_int "exact mid" 2 (Arrayx.find_last_leq Int.compare a 5);
  check_int "above all" 3 (Arrayx.find_last_leq Int.compare a 100);
  check_int "empty" (-1) (Arrayx.find_last_leq Int.compare [||] 5)

let test_find_first_geq () =
  let a = [| 1; 3; 5; 7 |] in
  check_int "below all" 0 (Arrayx.find_first_geq Int.compare a 0);
  check_int "exact" 1 (Arrayx.find_first_geq Int.compare a 3);
  check_int "between" 2 (Arrayx.find_first_geq Int.compare a 4);
  check_int "above all" 4 (Arrayx.find_first_geq Int.compare a 100)

let test_is_sorted () =
  check_bool "sorted" true (Arrayx.is_sorted Int.compare [| 1; 2; 2; 3 |]);
  check_bool "unsorted" false (Arrayx.is_sorted Int.compare [| 2; 1 |]);
  check_bool "strict rejects dups" false
    (Arrayx.is_strictly_sorted Int.compare [| 1; 2; 2 |]);
  check_bool "strict ok" true (Arrayx.is_strictly_sorted Int.compare [| 1; 2; 3 |]);
  check_bool "empty" true (Arrayx.is_sorted Int.compare [||])

let test_prng_bool_balanced () =
  let rng = Prng.create 15 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool rng then incr trues
  done;
  check_bool "roughly balanced" true (!trues > 4_500 && !trues < 5_500)

let test_histogram_render_smoke () =
  let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 1.0; 2.0; 2.5; -1.0; 99.0 ];
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Histogram.render ppf h;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check_bool "renders bars and overflow lines" true
    (String.length s > 50
    && (let contains needle =
          let n = String.length needle and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
          go 0
        in
        contains "underflow" && contains "overflow"))

(* Regression: a bin dwarfed by the peak used to round its bar down to
   zero '#', making a non-empty bin indistinguishable from an empty
   one. Counts render in a fixed %8d column, so " <count> " with that
   padding identifies each bin's line. *)
let test_histogram_render_min_bar () =
  let h = Histogram.create ~scale:Histogram.Linear ~lo:0.0 ~hi:3.0 ~bins:3 in
  for _ = 1 to 10_000 do
    Histogram.add h 0.5
  done;
  Histogram.add h 1.5;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Histogram.render ppf h;
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let line_of count =
    List.find (fun l -> contains l (Printf.sprintf "%8d " count)) lines
  in
  check_bool "peak bin has a bar" true (String.contains (line_of 10_000) '#');
  check_bool "singleton bin still shows a mark" true
    (String.contains (line_of 1) '#');
  check_bool "empty bin shows none" false (String.contains (line_of 0) '#')

let test_stats_pp_smoke () =
  let s = Stats.of_array [| 1.0; 2.0; 3.0 |] in
  let str = Fmt.str "%a" Stats.pp s in
  check_bool "mentions count" true (String.length str > 10)

let prop_find_last_leq_correct =
  QCheck.Test.make ~name:"find_last_leq agrees with linear scan" ~count:500
    QCheck.(pair (list small_int) small_int)
    (fun (xs, key) ->
      let a = Array.of_list (List.sort_uniq Int.compare xs) in
      let expected =
        let best = ref (-1) in
        Array.iteri (fun i x -> if x <= key then best := i) a;
        !best
      in
      Arrayx.find_last_leq Int.compare a key = expected)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "split_key leaves parent untouched" `Quick
            test_prng_split_key_no_perturbation;
          Alcotest.test_case "split_key keyed streams" `Quick
            test_prng_split_key_streams;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float_pos range" `Quick test_prng_float_pos_range;
          Alcotest.test_case "int range and uniformity" `Quick test_prng_int_range;
          Alcotest.test_case "int invalid bound" `Quick test_prng_int_invalid;
          Alcotest.test_case "uniform mean" `Slow test_prng_uniform_mean;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "pareto support" `Quick test_prng_pareto_support;
          Alcotest.test_case "pareto tail mass" `Slow test_prng_pareto_tail;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "bool balanced" `Quick test_prng_bool_balanced;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "singleton" `Quick test_heap_singleton;
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "exn on empty" `Quick test_heap_exn_on_empty;
          Alcotest.test_case "pop unpins" `Quick test_heap_pop_unpins;
          qtest prop_heap_sorts;
        ] );
      ("iheap", [ qtest prop_iheap_matches_sorted_model ]);
      ( "deque",
        [
          Alcotest.test_case "fifo" `Quick test_deque_fifo;
          Alcotest.test_case "wraparound" `Quick test_deque_wraparound;
          Alcotest.test_case "remove" `Quick test_deque_remove;
          Alcotest.test_case "filter_in_place" `Quick
            test_deque_filter_in_place;
          qtest prop_deque_matches_list_oracle;
          qtest prop_deque_wrapped_matches_list_oracle;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge empty" `Quick test_stats_merge_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "pp smoke" `Quick test_stats_pp_smoke;
          qtest prop_stats_mean_matches_direct;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "linear binning" `Quick test_histogram_linear_binning;
          Alcotest.test_case "over/underflow" `Quick test_histogram_overflow_underflow;
          Alcotest.test_case "log binning" `Quick test_histogram_log_binning;
          Alcotest.test_case "log nonpositive" `Quick test_histogram_log_nonpositive;
          Alcotest.test_case "bin bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "invalid args" `Quick test_histogram_invalid;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge mismatch" `Quick test_histogram_merge_mismatch;
          Alcotest.test_case "reset" `Quick test_histogram_reset;
          Alcotest.test_case "percentile basic" `Quick
            test_histogram_percentile_basic;
          Alcotest.test_case "render smoke" `Quick test_histogram_render_smoke;
          Alcotest.test_case "render min bar" `Quick test_histogram_render_min_bar;
          qtest prop_histogram_percentile_oracle;
        ] );
      ( "arrayx",
        [
          Alcotest.test_case "find_last_leq" `Quick test_find_last_leq;
          Alcotest.test_case "find_first_geq" `Quick test_find_first_geq;
          Alcotest.test_case "is_sorted" `Quick test_is_sorted;
          qtest prop_find_last_leq_correct;
        ] );
    ]
