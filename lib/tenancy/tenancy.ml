(* Multi-tenant economics: who is paying for each query, what class of
   service they bought, and whether accepting their next query is
   worth it.

   Three pieces:

   - a {e registry} of tenant profiles (SLA class + price tier +
     arrival share + error budget). Tenant assignment and the SLA a
     tenant's query carries are pure functions of (seed, query id), so
     tagging a workload is deterministic under any chunking, tiling or
     [-j] — the same keyed-draw discipline as [Sla_synth.pick_class];

   - an {e admission controller} for [Sim]'s [?admit] hook. It prices
     the arriving query with the postpone question on the server the
     FCFS dispatcher picks: that server's insertion delta is the
     newcomer's own attainable profit at its slot in an EDF plan
     {e minus} the postpone loss it inflicts on every query already
     buffered behind that slot ([Dispatchers.insertion_profit]). One
     question needs no SLA-tree: it is answered by a scan over the
     queries the newcomer displaces, and the query and its degraded
     copy are priced against one plan of the buffer.
     A query whose net is below the margin is first re-priced one SLA
     class down (the tenant still gets served, later and cheaper) and
     only rejected when even the degraded copy prices negative;

   - per-tenant {e accounting}: admission verdicts, completions,
     profit/ideal, lateness — plus a cumulative timeseries feeding the
     multi-window SLO burn-rate report, and a Jain fairness index over
     per-tenant profit attainment. *)

(* ------------------------------------------------------------------ *)
(* Profiles and the registry *)

type profile = {
  tenant : int;  (* registry index + 1; 0 stays the anonymous default *)
  pname : string;
  cls : int;  (* index into the synthesis config's classes, 0 = best *)
  tier : float;  (* price multiplier on the class's gains and penalty *)
  share : int;  (* relative arrival weight for assignment *)
  slo_late : float;  (* error budget: tolerated late fraction *)
}

let profile ?(tier = 1.0) ?(share = 1) ?(slo_late = 0.1) ~name ~cls () =
  if name = "" then invalid_arg "Tenancy.profile: name must be non-empty";
  if cls < 0 then invalid_arg "Tenancy.profile: cls must be non-negative";
  if tier <= 0.0 then invalid_arg "Tenancy.profile: tier must be positive";
  if share < 1 then invalid_arg "Tenancy.profile: share must be >= 1";
  if slo_late <= 0.0 || slo_late > 1.0 then
    invalid_arg "Tenancy.profile: slo_late must be in (0, 1]";
  { tenant = 0; pname = name; cls; tier; share; slo_late }

type registry = {
  profiles : profile array;  (* profiles.(i).tenant = i + 1 *)
  synth : Sla_synth.config;  (* class ladder + stretches the SLAs use *)
  seed : int;
}

let registry ?(seed = 0x7e4a47) ?(synth = Sla_synth.config ()) profiles =
  if Array.length profiles = 0 then
    invalid_arg "Tenancy.registry: need at least one profile";
  let n_classes = Array.length synth.Sla_synth.classes in
  Array.iter
    (fun p ->
      if p.cls >= n_classes then
        invalid_arg "Tenancy.registry: profile class out of range")
    profiles;
  { profiles = Array.mapi (fun i p -> { p with tenant = i + 1 }) profiles;
    synth; seed }

(* Three-tenant default mirroring the gold/silver/bronze synthesis
   ladder: a small premium tenant paying 1.5x for gold service, a
   mid-size tenant on silver, and a big batch tenant on discounted
   bronze with a loose error budget. *)
let default_registry () =
  registry
    [|
      profile ~name:"gold-api" ~cls:0 ~tier:1.5 ~share:1 ~slo_late:0.05 ();
      profile ~name:"silver-app" ~cls:1 ~tier:1.0 ~share:3 ~slo_late:0.10 ();
      profile ~name:"bronze-batch" ~cls:2 ~tier:0.6 ~share:6 ~slo_late:0.25 ();
    |]

let n_tenants reg = Array.length reg.profiles

let find reg ~tenant =
  if tenant >= 1 && tenant <= Array.length reg.profiles then
    Some reg.profiles.(tenant - 1)
  else None

(* The SLA tenant [p] buys for a query with estimate [est]: the class's
   stepwise ladder with every gain and the penalty scaled by the price
   tier — a tenant paying 1.5x earns (and forfeits) 1.5x the dollars,
   so the probes price its queries accordingly. *)
let sla_for reg p ~cls ~est =
  let c = reg.synth.Sla_synth.classes.(cls)
  and stretches = reg.synth.Sla_synth.stretches in
  let n = Array.length stretches in
  let bounds = Array.create_float n and gains = Array.create_float (n + 1) in
  for k = 0 to n - 1 do
    bounds.(k) <- stretches.(k) *. est;
    gains.(k) <- c.Sla_synth.gains.(k) *. p.tier
  done;
  Sla.of_array ~bounds ~gains ~penalty:(c.Sla_synth.penalty *. p.tier)

(* ------------------------------------------------------------------ *)
(* Tenant assignment *)

(* Share-weighted draw keyed on the query id: a pure function of
   (registry seed, id), so assignment is identical however the trace
   is chunked, tiled or parallelised. *)
let pick_tenant reg ~master ~id =
  let total = Array.fold_left (fun a p -> a + p.share) 0 reg.profiles in
  let d = Prng.int (Prng.split_key master ~key:id) total in
  let rec go i acc =
    let acc = acc + reg.profiles.(i).share in
    if d < acc then reg.profiles.(i) else go (i + 1) acc
  in
  go 0 0

let tenant_of reg ~id =
  (pick_tenant reg ~master:(Prng.create reg.seed) ~id).tenant

let assign_query reg ~master q =
  let p = pick_tenant reg ~master ~id:q.Query.id in
  Query.make ~id:q.Query.id ~arrival:q.Query.arrival ~size:q.Query.size
    ~est_size:q.Query.est_size ~retries:q.Query.retries ~tenant:p.tenant
    ~sla:(sla_for reg p ~cls:p.cls ~est:q.Query.est_size)
    ()

let assign reg queries =
  let master = Prng.create reg.seed in
  Array.map (assign_query reg ~master) queries

let assign_seq reg queries =
  let master = Prng.create reg.seed in
  Seq.map (assign_query reg ~master) queries

(* ------------------------------------------------------------------ *)
(* Per-tenant accounting *)

module Acct = struct
  (* Index 0 is the anonymous tenant; 1..n the registry. All arrays
     are cumulative counters — O(1) per event, no per-query state. *)
  type t = {
    reg : registry;
    warmup_id : int;
    offered : int array;
    admitted : int array;
    degraded : int array;
    rejected : int array;
    completed : int array;
    measured : int array;
    late : int array;
    profit : float array;
    ideal : float array;
    response : float array;
    rejected_value : float array;
  }

  let create reg ~warmup_id =
    let n = n_tenants reg + 1 in
    {
      reg;
      warmup_id;
      offered = Array.make n 0;
      admitted = Array.make n 0;
      degraded = Array.make n 0;
      rejected = Array.make n 0;
      completed = Array.make n 0;
      measured = Array.make n 0;
      late = Array.make n 0;
      profit = Array.make n 0.0;
      ideal = Array.make n 0.0;
      response = Array.make n 0.0;
      rejected_value = Array.make n 0.0;
    }

  let slot t q =
    let i = q.Query.tenant in
    if i >= 0 && i <= n_tenants t.reg then i else 0

  let measured_q t q = q.Query.id >= t.warmup_id

  let on_offered t q =
    let i = slot t q in
    t.offered.(i) <- t.offered.(i) + 1

  let on_admitted t q =
    let i = slot t q in
    t.admitted.(i) <- t.admitted.(i) + 1

  let on_degraded t q =
    let i = slot t q in
    t.degraded.(i) <- t.degraded.(i) + 1

  let on_rejected t q =
    let i = slot t q in
    t.rejected.(i) <- t.rejected.(i) + 1;
    if measured_q t q then
      t.rejected_value.(i) <- t.rejected_value.(i) +. Query.ideal_profit q

  (* Wire as [Sim]'s [on_complete]. Without a drop policy every
     admitted query eventually completes (late ones at their penalty),
     so completions account for all served work. *)
  let on_complete t q ~completion =
    let i = slot t q in
    t.completed.(i) <- t.completed.(i) + 1;
    if measured_q t q then begin
      t.measured.(i) <- t.measured.(i) + 1;
      t.profit.(i) <- t.profit.(i) +. Query.profit_at q ~completion;
      t.ideal.(i) <- t.ideal.(i) +. Query.ideal_profit q;
      t.response.(i) <- t.response.(i) +. (completion -. q.Query.arrival);
      if completion > Query.first_deadline q then t.late.(i) <- t.late.(i) + 1
    end

  let total_profit t = Array.fold_left ( +. ) 0.0 t.profit
  let total_rejected_value t = Array.fold_left ( +. ) 0.0 t.rejected_value

  (* -------------------------------------------------------------- *)
  (* The cumulative per-tenant timeseries the burn-rate windows read:
     columns t<i>.measured / t<i>.late, one row per sample. *)

  let timeseries_columns reg =
    Array.concat
      (List.map
         (fun p ->
           [| Printf.sprintf "t%d.measured" p.tenant;
              Printf.sprintf "t%d.late" p.tenant |])
         (Array.to_list reg.profiles))

  let timeseries reg = Obs.Timeseries.create ~columns:(timeseries_columns reg)

  let sample t ts ~now =
    let n = n_tenants t.reg in
    let row = Array.make (2 * n) 0.0 in
    for i = 1 to n do
      row.((2 * (i - 1)) + 0) <- Float.of_int t.measured.(i);
      row.((2 * (i - 1)) + 1) <- Float.of_int t.late.(i)
    done;
    Obs.Timeseries.sample ts ~now row
end

(* ------------------------------------------------------------------ *)
(* The admission controller *)

type admission = {
  a_reg : registry;
  acct : Acct.t;
  theta : float;  (* required net margin, $ *)
}

let admission ?(theta = 0.0) reg ~acct () =
  if not (Float.is_finite theta) then
    invalid_arg "Tenancy.admission: theta must be finite";
  { a_reg = reg; acct; theta }

let degraded_copy admission q =
  match find admission.a_reg ~tenant:q.Query.tenant with
  | None -> None
  | Some p ->
    let cls = p.cls + 1 in
    if cls >= Array.length admission.a_reg.synth.Sla_synth.classes then None
    else
      Some
        (Query.make ~id:q.Query.id ~arrival:q.Query.arrival ~size:q.Query.size
           ~est_size:q.Query.est_size ~retries:q.Query.retries
           ~tenant:q.Query.tenant
           ~sla:(sla_for admission.a_reg p ~cls ~est:q.Query.est_size)
           ())

(* Wire as [Sim]'s [?admit]. The query is priced on the server the
   FCFS SLA-tree dispatcher will pick ([Dispatchers.fcfs_best]: the
   highest appended profit, then the least work left, then the lowest
   sid). Its net worth there is the postpone question at its planned
   slot: its own attainable profit minus the loss inflicted on
   everything buffered behind it, in dollars (gains are tier-scaled at
   assignment). The query and its degraded copy are priced against one
   EDF plan of that server's buffer. *)
let admit admission sim q =
  let acct = admission.acct in
  Acct.on_offered acct q;
  match Dispatchers.fcfs_best sim q with
  | None ->
    (* nothing accepts work: let the dispatcher deal with it *)
    Acct.on_admitted acct q;
    Sim.Admit
  | Some (sid, _) ->
    let net = Dispatchers.insertion_profit Planner.edf sim sid in
    if net q >= admission.theta then begin
      Acct.on_admitted acct q;
      Sim.Admit
    end
    else begin
      match degraded_copy admission q with
      | Some q' when net q' >= admission.theta ->
        Acct.on_admitted acct q;
        Acct.on_degraded acct q;
        Sim.Degrade q'
      | _ ->
        Acct.on_rejected acct q;
        Sim.Reject
    end

(* ------------------------------------------------------------------ *)
(* Fairness *)

(* Jain's index over per-tenant profit attainment x_i = profit_i /
   ideal_i: (sum x)^2 / (n * sum x^2); 1.0 = perfectly even service,
   1/n = one tenant gets everything. 1.0 for an empty or all-zero
   vector (nobody is being treated unequally). *)
let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let s = Array.fold_left ( +. ) 0.0 xs in
    let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (Float.of_int n *. s2)
  end

(* ------------------------------------------------------------------ *)
(* SLO burn rate *)

(* Multi-window multi-burn-rate alerting: a window's burn rate is the
   late fraction over that window divided by the tenant's error
   budget; a page fires when both the long window and its short
   confirmation window burn above the threshold. The four canonical
   pairs (5m/1h @ 14.4x ... 6h/3d @ 1x) are mapped onto virtual time
   by anchoring the longest window (3 days) to the run's span. *)
type burn_window = {
  bw_label : string;
  bw_short_min : float;
  bw_long_min : float;
  bw_threshold : float;
}

let burn_windows =
  [
    { bw_label = "5m/1h"; bw_short_min = 5.0; bw_long_min = 60.0;
      bw_threshold = 14.4 };
    { bw_label = "30m/6h"; bw_short_min = 30.0; bw_long_min = 360.0;
      bw_threshold = 6.0 };
    { bw_label = "2h/1d"; bw_short_min = 120.0; bw_long_min = 1440.0;
      bw_threshold = 3.0 };
    { bw_label = "6h/3d"; bw_short_min = 360.0; bw_long_min = 4320.0;
      bw_threshold = 1.0 };
  ]

type burn = {
  window : burn_window;
  short_burn : float;
  long_burn : float;
  firing : bool;
}

(* Late fraction over (from_, to_] read off the cumulative columns; a
   window with no measured traffic burns 0 (an empty window can't
   spend budget). *)
let late_frac_over ts ~tenant ~from_ ~to_ =
  let v column now =
    let x = Obs.Timeseries.value_at ts ~column ~now in
    if Float.is_nan x then 0.0 else x
  in
  let col_n = Printf.sprintf "t%d.measured" tenant in
  let col_l = Printf.sprintf "t%d.late" tenant in
  let dn = v col_n to_ -. v col_n (Float.max 0.0 from_) in
  let dl = v col_l to_ -. v col_l (Float.max 0.0 from_) in
  if dn <= 0.0 then 0.0 else dl /. dn

let burn_rates reg ts ~tenant ~span =
  match find reg ~tenant with
  | None -> []
  | Some p ->
    let ms_per_min = span /. 4320.0 in
    List.map
      (fun w ->
        let frac m =
          late_frac_over ts ~tenant ~from_:(span -. (m *. ms_per_min))
            ~to_:span
        in
        let short_burn = frac w.bw_short_min /. p.slo_late in
        let long_burn = frac w.bw_long_min /. p.slo_late in
        {
          window = w;
          short_burn;
          long_burn;
          firing =
            short_burn >= w.bw_threshold && long_burn >= w.bw_threshold;
        })
      burn_windows

(* ------------------------------------------------------------------ *)
(* The per-tenant report *)

type tenant_row = {
  r_tenant : int;
  r_name : string;
  r_offered : int;
  r_admitted : int;
  r_degraded : int;
  r_rejected : int;
  r_completed : int;
  r_measured : int;
  r_late : int;
  r_profit : float;
  r_ideal : float;
  r_attainment : float;  (* profit / ideal over measured work; 0 if none *)
  r_burns : burn list;
}

type report = {
  rows : tenant_row list;
  rep_profit : float;  (* summed measured per-tenant profit *)
  rep_rejected_value : float;
  fairness : float;  (* Jain over per-tenant attainment *)
}

let report ?timeseries:ts ?(span = 0.0) (acct : Acct.t) =
  let reg = acct.Acct.reg in
  let rows =
    Array.to_list
      (Array.map
         (fun p ->
           let i = p.tenant in
           let ideal = acct.Acct.ideal.(i) in
           {
             r_tenant = i;
             r_name = p.pname;
             r_offered = acct.Acct.offered.(i);
             r_admitted = acct.Acct.admitted.(i);
             r_degraded = acct.Acct.degraded.(i);
             r_rejected = acct.Acct.rejected.(i);
             r_completed = acct.Acct.completed.(i);
             r_measured = acct.Acct.measured.(i);
             r_late = acct.Acct.late.(i);
             r_profit = acct.Acct.profit.(i);
             r_ideal = ideal;
             r_attainment =
               (if ideal = 0.0 then 0.0 else acct.Acct.profit.(i) /. ideal);
             r_burns =
               (match ts with
               | Some ts when span > 0.0 ->
                 burn_rates reg ts ~tenant:i ~span
               | _ -> []);
           })
         reg.profiles)
  in
  {
    rows;
    rep_profit = Acct.total_profit acct;
    rep_rejected_value = Acct.total_rejected_value acct;
    fairness =
      jain (Array.of_list (List.map (fun r -> r.r_attainment) rows));
  }

let pp_burn ppf b =
  Fmt.pf ppf "%s %.2fx/%.2fx%s" b.window.bw_label b.short_burn b.long_burn
    (if b.firing then "!" else "")

let pp_row ppf r =
  Fmt.pf ppf
    "t%d %-12s off %6d adm %6d deg %5d rej %5d late %5d profit %10.1f \
     attain %.3f"
    r.r_tenant r.r_name r.r_offered r.r_admitted r.r_degraded r.r_rejected
    r.r_late r.r_profit r.r_attainment;
  if r.r_burns <> [] then begin
    Fmt.pf ppf "  burn[";
    List.iteri
      (fun i b -> Fmt.pf ppf "%s%a" (if i > 0 then " " else "") pp_burn b)
      r.r_burns;
    Fmt.pf ppf "]"
  end

let pp_report ppf rep =
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_row r) rep.rows;
  Fmt.pf ppf "total profit %.1f  turned-away ideal %.1f  Jain fairness %.3f"
    rep.rep_profit rep.rep_rejected_value rep.fairness
