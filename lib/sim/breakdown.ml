(* Per-class outcome breakdown: who pays for a policy's improvement?

   Gupta et al. (cited in paper Sec 2.3) argue enterprise scheduling
   must be measured per customer class, not just in aggregate. This
   collector groups measured queries by a caller-supplied classifier
   (e.g. buyer vs employee under SLA-B) and reports per-class loss,
   profit and deadline misses. *)

type class_stats = {
  label : string;
  loss : Stats.t;
  profit : Stats.t;
  response : Stats.t;
  mutable late : int;
}

type t = {
  classify : Query.t -> string;
  warmup_id : int;
  mutable classes : class_stats list;  (* small; linear lookup *)
}

let create ~classify ~warmup_id =
  if warmup_id < 0 then invalid_arg "Breakdown.create: warmup_id < 0";
  { classify; warmup_id; classes = [] }

let stats_for t label =
  match List.find_opt (fun c -> c.label = label) t.classes with
  | Some c -> c
  | None ->
    let c =
      {
        label;
        loss = Stats.create ();
        profit = Stats.create ();
        response = Stats.create ();
        late = 0;
      }
    in
    t.classes <- t.classes @ [ c ];
    c

(* One walk of the SLA per completion, as in [Metrics.record]: the loss
   is [Sla.max_gain -. profit], the float [Query.loss_at] returns. *)
let record t q ~completion =
  if q.Query.id >= t.warmup_id then begin
    let c = stats_for t (t.classify q) in
    let profit = Query.profit_at q ~completion in
    Stats.add c.loss (Sla.max_gain q.Query.sla -. profit);
    Stats.add c.profit profit;
    Stats.add c.response (completion -. q.Query.arrival);
    if completion > Query.first_deadline q then c.late <- c.late + 1
  end

let classes t = t.classes

let find t label = List.find_opt (fun c -> c.label = label) t.classes

let pp ppf t =
  List.iter
    (fun c ->
      let n = Stats.count c.loss in
      Fmt.pf ppf "  %-12s n=%-6d avg loss $%.3f  avg profit $%.3f  late %.1f%%@."
        c.label n (Stats.mean c.loss) (Stats.mean c.profit)
        (if n = 0 then Float.nan else 100.0 *. Float.of_int c.late /. Float.of_int n))
    t.classes
