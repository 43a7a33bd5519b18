(* Per-run metrics. The paper's headline number is the average profit
   loss per query relative to the ideal world in which every first
   deadline is met (Sec 7.1). The first [warmup_id] queries warm the
   system up and are not measured. *)

(* Per-query response times are retained so percentile statistics can
   be reported; everything else is O(1) state. Beyond the cap the
   retained values form a uniform reservoir sample (Algorithm R) of
   the whole run, seeded deterministically from [warmup_id] — the old
   behaviour of keeping only the *first* cap responses made long-run
   percentiles blind to the entire tail of the workload. *)
let response_sample_cap = 1_000_000

type t = {
  warmup_id : int;
  loss : Stats.t;
  profit : Stats.t;
  response : Stats.t;
  mutable responses : float array;  (* sample of measured responses *)
  mutable n_responses : int;  (* filled slots, <= response_cap *)
  mutable seen_responses : int;  (* all responses ever pushed *)
  response_cap : int;
  rng : Prng.t;  (* reservoir replacement draws; untouched below cap *)
  (* Sorted copy of the first [n_responses] samples, built on the first
     percentile query and reused until the next [push_response]. *)
  mutable sorted_responses : float array option;
  mutable completed_all : int;
  mutable offered : int;  (* every query presented to the dispatcher *)
  mutable admitted : int;  (* offered queries that reached a buffer *)
  mutable rejected : int;
  mutable rejected_loss : float;  (* ideal profit turned away (measured) *)
  mutable dropped : int;
  mutable lost : int;  (* killed by a crash and never re-served *)
  mutable late : int;  (* measured queries that missed their first deadline *)
}

let create ?(response_cap = response_sample_cap) ~warmup_id () =
  if warmup_id < 0 then invalid_arg "Metrics.create: warmup_id < 0";
  if response_cap < 1 then invalid_arg "Metrics.create: response_cap < 1";
  {
    warmup_id;
    loss = Stats.create ();
    profit = Stats.create ();
    response = Stats.create ();
    responses = [||];
    n_responses = 0;
    seen_responses = 0;
    response_cap;
    rng = Prng.create (0x5e5e5e + warmup_id);
    sorted_responses = None;
    completed_all = 0;
    offered = 0;
    admitted = 0;
    rejected = 0;
    rejected_loss = 0.0;
    dropped = 0;
    lost = 0;
    late = 0;
  }

let measured q t = q.Query.id >= t.warmup_id

let push_response t r =
  t.seen_responses <- t.seen_responses + 1;
  if t.n_responses < t.response_cap then begin
    (* Below the cap: plain append, no rng draws — byte-identical to
       the pre-reservoir behaviour for every run that fits. *)
    t.sorted_responses <- None;
    let cap = Array.length t.responses in
    if t.n_responses = cap then begin
      let ncap = min t.response_cap (max 256 (cap * 2)) in
      let a = Array.make ncap 0.0 in
      Array.blit t.responses 0 a 0 t.n_responses;
      t.responses <- a
    end;
    t.responses.(t.n_responses) <- r;
    t.n_responses <- t.n_responses + 1
  end
  else begin
    (* Algorithm R: the k-th response overall replaces a uniformly
       chosen reservoir slot with probability cap/k, keeping every
       response seen so far equally likely to be retained. *)
    let j = Prng.int t.rng t.seen_responses in
    if j < t.response_cap then begin
      t.sorted_responses <- None;
      t.responses.(j) <- r
    end
  end

(* One walk of the SLA per completion: the loss is
   [Sla.max_gain -. profit], the float [Query.loss_at] returns. The
   default build inlines [Query.profit_at] and [Stats.add], so neither
   float is boxed to be passed. *)
let record t q ~completion =
  t.completed_all <- t.completed_all + 1;
  if measured q t then begin
    let profit = Query.profit_at q ~completion in
    Stats.add t.loss (Sla.max_gain q.Query.sla -. profit);
    Stats.add t.profit profit;
    let r = completion -. q.Query.arrival in
    Stats.add t.response r;
    push_response t r;
    if completion > Query.first_deadline q then t.late <- t.late + 1
  end

let record_offered t = t.offered <- t.offered + 1
let record_admitted t = t.admitted <- t.admitted + 1

(* A rejected query earns nothing and pays nothing: it never enters
   the system, so it must not dilute the per-query averages the paper
   reports over *served* work. The turned-away ideal profit is kept on
   its own accumulator for the economics reports. *)
let record_rejected t q =
  t.rejected <- t.rejected + 1;
  if measured q t then
    t.rejected_loss <- t.rejected_loss +. Query.ideal_profit q

(* A dropped query (paper footnote 2: its last deadline passed while it
   waited, so the penalty is already incurred): the provider keeps the
   penalty but stops wasting server time on it. *)
let record_dropped t q =
  t.dropped <- t.dropped + 1;
  if measured q t then begin
    let penalty = Sla.penalty q.Query.sla in
    Stats.add t.profit (-.penalty);
    Stats.add t.loss (Query.ideal_profit q +. penalty);
    t.late <- t.late + 1
  end

(* A query lost to a crash (killed mid-run or mid-buffer and never
   re-injected): it will never complete, so its last deadline
   eventually passes and the provider pays the penalty — the same
   account as a drop, kept on a separate counter because the cause is
   an infrastructure fault, not a scheduling decision. *)
let record_lost t q =
  t.lost <- t.lost + 1;
  if measured q t then begin
    let penalty = Sla.penalty q.Query.sla in
    Stats.add t.profit (-.penalty);
    Stats.add t.loss (Query.ideal_profit q +. penalty);
    t.late <- t.late + 1
  end

let measured_count t = Stats.count t.loss
let completed_count t = t.completed_all
let offered_count t = t.offered
let admitted_count t = t.admitted
let rejected_count t = t.rejected
let rejected_loss t = t.rejected_loss
let dropped_count t = t.dropped
let lost_count t = t.lost
let late_count t = t.late
let avg_loss t = Stats.mean t.loss
let avg_profit t = Stats.mean t.profit
let total_profit t = Stats.total t.profit
let avg_response t = Stats.mean t.response

(* Percentile of measured response times (linear interpolation). The
   sorted sample is cached across calls — reporting p50/p95/p99 after a
   run costs one sort, not three. *)
let sorted_responses t =
  match t.sorted_responses with
  | Some a -> a
  | None ->
    let a = Array.sub t.responses 0 t.n_responses in
    Array.sort Float.compare a;
    t.sorted_responses <- Some a;
    a

let response_percentile t p =
  if t.n_responses = 0 then Float.nan
  else Stats.percentile_of_sorted (sorted_responses t) p

let response_percentiles t ps = List.map (response_percentile t) ps

let late_fraction t =
  let n = measured_count t in
  if n = 0 then Float.nan else Float.of_int t.late /. Float.of_int n

let pp ppf t =
  Fmt.pf ppf
    "measured=%d completed=%d rejected=%d dropped=%d lost=%d avg_loss=%.4f \
     avg_profit=%.4f avg_response=%.3f late=%.3f"
    (measured_count t) t.completed_all t.rejected t.dropped t.lost (avg_loss t)
    (avg_profit t) (avg_response t) (late_fraction t)
