(* Fault injection: plans (scripted or drawn from an MTTF/MTTR
   exponential model), and the injector that realises a plan against a
   live [Sim.run] through its [timers] hook.

   Determinism is the load-bearing property here. The random model
   owns its generator (derived from the plan seed alone) and draws
   per-server sub-streams via [Prng.split_key], which does not advance
   the parent — so the same seed always yields the same plan, and
   enabling faults cannot perturb any other random stream in the run.
   The injector itself is branch-free of wall-clock or ambient state:
   same plan + same workload => byte-identical metrics. *)

type event =
  | Crash of { at : float; sid : int }
  | Degrade of { at : float; sid : int; factor : float }
  | Restore of { at : float; sid : int }

let event_time = function
  | Crash { at; _ } | Degrade { at; _ } | Restore { at; _ } -> at

let pp_event ppf = function
  | Crash { at; sid } -> Fmt.pf ppf "crash@%g:%d" at sid
  | Degrade { at; sid; factor } -> Fmt.pf ppf "degrade@%g:%d:%g" at sid factor
  | Restore { at; sid } -> Fmt.pf ppf "restore@%g:%d" at sid

type plan = event list

(* The least degrade factor. A brownout stretches the running query's
   remaining work by 1/factor; far below this floor it is a halt, not a
   brownout, and a factor near the least float overflows that
   completion to infinity, which a later restore cannot undo. *)
let min_factor = 1e-6

let validate_event ev =
  let bad rule = Fmt.kstr invalid_arg "Fault.scripted: %a: %s" pp_event ev rule in
  let at = event_time ev in
  if not (Float.is_finite at && at >= 0.) then
    bad "time must be finite and non-negative";
  (match ev with
  | Crash { sid; _ } | Restore { sid; _ } ->
    if sid < 0 then bad "sid must be non-negative"
  | Degrade { sid; factor; _ } ->
    if sid < 0 then bad "sid must be non-negative";
    if not (Float.is_finite factor && factor >= min_factor) then
      bad (Fmt.str "factor must be finite and at least %g" min_factor));
  ev

let sort_plan evs =
  List.stable_sort (fun a b -> Float.compare (event_time a) (event_time b)) evs

let scripted evs = sort_plan (List.map validate_event evs)

let random_plan ?(degrade_prob = 0.) ?(degrade_factor = 0.5) ~seed ~horizon
    ~n_servers ~mttf ~mttr () =
  if not (Float.is_finite mttf && mttf > 0.) then
    invalid_arg "Fault.random_plan: mttf must be finite and positive";
  if not (Float.is_finite mttr && mttr > 0.) then
    invalid_arg "Fault.random_plan: mttr must be finite and positive";
  if not (degrade_prob >= 0. && degrade_prob <= 1.) then
    invalid_arg "Fault.random_plan: degrade_prob outside [0, 1]";
  if not (degrade_factor >= min_factor && degrade_factor <= 1.) then
    Fmt.kstr invalid_arg "Fault.random_plan: degrade_factor outside [%g, 1]"
      min_factor;
  if n_servers < 0 then invalid_arg "Fault.random_plan: n_servers < 0";
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg "Fault.random_plan: horizon must be finite and non-negative";
  let base = Prng.create seed in
  let evs = ref [] in
  for sid = 0 to n_servers - 1 do
    (* One failure process per server on its own sub-stream: the plan
       for server k does not depend on how many other servers exist. *)
    let rng = Prng.split_key base ~key:sid in
    let t = ref 0. in
    let alive = ref true in
    while !alive do
      let at = !t +. Prng.exponential rng ~mean:mttf in
      if at >= horizon then alive := false
      else begin
        let repair = Prng.exponential rng ~mean:mttr in
        let fault =
          if Prng.float rng < degrade_prob then
            Degrade { at; sid; factor = degrade_factor }
          else Crash { at; sid }
        in
        (* The repair is kept even past the horizon: a fault must
           never be accidentally permanent. *)
        evs := Restore { at = at +. repair; sid } :: fault :: !evs;
        t := at +. repair
      end
    done
  done;
  sort_plan (List.rev !evs)

type retry_policy = { max_retries : int; requeue : bool }

let default_retry = { max_retries = 3; requeue = true }

type stats = {
  crashes : int;
  degrades : int;
  restores : int;
  skipped : int;
  retries : int;
  lost : int;
  recoveries : (float * float) list;
}

let mean_time_to_recover s =
  match s.recoveries with
  | [] -> Float.nan
  | l ->
    List.fold_left (fun acc (_, d) -> acc +. d) 0. l
    /. Float.of_int (List.length l)

let pp_stats ppf s =
  Fmt.pf ppf
    "crashes=%d degrades=%d restores=%d skipped=%d retries=%d lost=%d \
     recovered=%d mttr=%.3f"
    s.crashes s.degrades s.restores s.skipped s.retries s.lost
    (List.length s.recoveries) (mean_time_to_recover s)

(* Counter handles, resolved once at [create] (the Obs zero-cost
   discipline: [None] on the noop sink, one record otherwise). *)
type handles = {
  h_crashes : Obs.Registry.counter;
  h_degrades : Obs.Registry.counter;
  h_restores : Obs.Registry.counter;
  h_retries : Obs.Registry.counter;
  h_lost : Obs.Registry.counter;
  h_skipped : Obs.Registry.counter;
}

type t = {
  obs : Obs.t;
  handles : handles option;
  retry : retry_policy;
  plan : plan;
  mutable sim : Sim.t option;  (* stashed at the first timer firing *)
  mutable crashes : int;
  mutable degrades : int;
  mutable restores : int;
  mutable skipped : int;
  mutable retries : int;
  mutable lost_n : int;
  mutable lost_rev : Query.t list;  (* accounted by [finalize] *)
  mutable pending : (float * float) list;  (* crash time, baseline backlog *)
  mutable recoveries_rev : (float * float) list;
  mutable finalized : bool;
}

let create ?(obs = Obs.noop) ?(retry = default_retry) ~plan () =
  if retry.max_retries < 0 then invalid_arg "Fault.create: max_retries < 0";
  let handles =
    if Obs.enabled obs then
      let r = Obs.registry obs in
      Some
        {
          h_crashes = Obs.Registry.counter r "fault.crashes";
          h_degrades = Obs.Registry.counter r "fault.degrades";
          h_restores = Obs.Registry.counter r "fault.restores";
          h_retries = Obs.Registry.counter r "fault.retries";
          h_lost = Obs.Registry.counter r "fault.lost";
          h_skipped = Obs.Registry.counter r "fault.skipped";
        }
    else None
  in
  {
    obs;
    handles;
    retry;
    plan;
    sim = None;
    crashes = 0;
    degrades = 0;
    restores = 0;
    skipped = 0;
    retries = 0;
    lost_n = 0;
    lost_rev = [];
    pending = [];
    recoveries_rev = [];
    finalized = false;
  }

let count t f = match t.handles with Some h -> f h | None -> ()

let skip t =
  t.skipped <- t.skipped + 1;
  count t (fun h -> Obs.Registry.incr h.h_skipped)

(* Estimated work still in the pool — the recovery baseline metric.
   [Down] and [Retired] servers hold nothing; [est_work_left] is O(1)
   per server. *)
let total_backlog sim =
  let b = ref 0. in
  for sid = 0 to Sim.n_servers sim - 1 do
    if Sim.server_state sim sid <> Sim.Retired then
      b := !b +. Sim.est_work_left sim (Sim.server sim sid)
  done;
  !b

let fire_crash t sim sid =
  match Sim.server_state sim sid with
  | Sim.Down | Sim.Retired -> skip t
  | _ when Sim.dispatchable sim sid && Sim.dispatchable_count sim <= 1 ->
    (* Never strand the workload: dispatchers raise when no server
       accepts work, so the last dispatchable server is immune. *)
    skip t
  | _ ->
    let now = Sim.now sim in
    let baseline = total_backlog sim in
    let orphans = Sim.crash_server sim sid in
    t.crashes <- t.crashes + 1;
    count t (fun h -> Obs.Registry.incr h.h_crashes);
    let retried = ref 0 and lost = ref 0 in
    List.iter
      (fun q ->
        if t.retry.requeue && q.Query.retries < t.retry.max_retries then begin
          incr retried;
          Sim.reinject sim (Query.retried q)
        end
        else begin
          incr lost;
          t.lost_rev <- q :: t.lost_rev
        end)
      orphans;
    t.retries <- t.retries + !retried;
    t.lost_n <- t.lost_n + !lost;
    count t (fun h ->
        Obs.Registry.add h.h_retries !retried;
        Obs.Registry.add h.h_lost !lost);
    t.pending <- (now, baseline) :: t.pending;
    Obs.instant t.obs ~cat:"fault"
      ~args:
        [
          ("t", Obs.Trace.F now);
          ("sid", Obs.Trace.I sid);
          ("orphaned", Obs.Trace.I (List.length orphans));
          ("retried", Obs.Trace.I !retried);
          ("lost", Obs.Trace.I !lost);
        ]
      "fault.crash"

let fire_degrade t sim sid factor =
  match Sim.server_state sim sid with
  | Sim.Down | Sim.Retired -> skip t
  | _ ->
    Sim.degrade_server sim sid ~factor;
    t.degrades <- t.degrades + 1;
    count t (fun h -> Obs.Registry.incr h.h_degrades);
    Obs.instant t.obs ~cat:"fault"
      ~args:
        [
          ("t", Obs.Trace.F (Sim.now sim));
          ("sid", Obs.Trace.I sid);
          ("factor", Obs.Trace.F factor);
        ]
      "fault.degrade"

let fire_restore t sim sid =
  let restorable =
    match Sim.server_state sim sid with
    | Sim.Down -> true
    | Sim.Active | Sim.Draining ->
      let s = Sim.server sim sid in
      s.Sim.speed <> s.Sim.nominal
    | Sim.Booting _ | Sim.Retired -> false
  in
  if not restorable then skip t
  else begin
    Sim.restore_server sim sid;
    t.restores <- t.restores + 1;
    count t (fun h -> Obs.Registry.incr h.h_restores);
    Obs.instant t.obs ~cat:"fault"
      ~args:[ ("t", Obs.Trace.F (Sim.now sim)); ("sid", Obs.Trace.I sid) ]
      "fault.restore"
  end

(* Plan sids are pool *slots*: slot [k] is the k-th non-retired server
   at fire time. On a static pool that is just server [k]; under an
   autoscaler, the machine occupying the slot fails — whatever server
   currently runs on it — so fault plans stay meaningful when the
   controller has replaced the initial servers. *)
let resolve_slot sim slot =
  let n = Sim.n_servers sim in
  let rec go sid live =
    if sid >= n then None
    else if Sim.server_state sim sid <> Sim.Retired then
      if live = slot then Some sid else go (sid + 1) (live + 1)
    else go (sid + 1) live
  in
  go 0 0

let fire t sim ev =
  t.sim <- Some sim;
  let slot =
    match ev with
    | Crash { sid; _ } | Degrade { sid; _ } | Restore { sid; _ } -> sid
  in
  match resolve_slot sim slot with
  | None -> skip t
  | Some sid -> (
    match ev with
    | Crash _ -> fire_crash t sim sid
    | Degrade { factor; _ } -> fire_degrade t sim sid factor
    | Restore _ -> fire_restore t sim sid)

let timers t =
  Array.of_list
    (List.map (fun ev -> (event_time ev, fun sim -> fire t sim ev)) t.plan)

let on_server_event t ~sid:_ ~now ev =
  match ev with
  | Sim.Finished _ -> (
    match (t.pending, t.sim) with
    | [], _ | _, None -> ()
    | pending, Some sim ->
      let b = total_backlog sim in
      let resolved, still =
        List.partition (fun (_, baseline) -> b <= baseline) pending
      in
      if resolved <> [] then begin
        t.pending <- still;
        List.iter
          (fun (ct, _) -> t.recoveries_rev <- (ct, now -. ct) :: t.recoveries_rev)
          resolved
      end)
  | _ -> ()

let finalize t metrics =
  if t.finalized then invalid_arg "Fault.finalize: already finalized";
  t.finalized <- true;
  List.iter (Metrics.record_lost metrics) (List.rev t.lost_rev)

let stats t =
  {
    crashes = t.crashes;
    degrades = t.degrades;
    restores = t.restores;
    skipped = t.skipped;
    retries = t.retries;
    lost = t.lost_n;
    recoveries =
      List.sort
        (fun (a, _) (b, _) -> Float.compare a b)
        (List.rev t.recoveries_rev);
  }

(* --- CLI spec parsing ------------------------------------------------- *)

let spec_doc =
  "none | moderate[:SEED] | severe[:SEED] | \
   mttf=T,mttr=T[,degrade=P][,factor=F][,seed=N] | \
   crash@T:SID;degrade@T:SID:F;restore@T:SID"

let default_seed = 97

let bad fmt = Fmt.kstr invalid_arg ("Fault.plan_of_spec: " ^^ fmt)

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> bad "bad %s %S" what s

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> bad "bad %s %S" what s

(* "moderate" / "severe", optionally ":<seed>". Moderate is the
   partial-degradation regime — brownouts only, about one per server,
   quick repairs — where dispatch quality still matters; severe is
   capacity starvation (frequent full crashes, repairs an order of
   magnitude slower), where every dispatcher drowns and the retry /
   loss machinery is exercised. *)
let parse_preset name rest ~horizon ~n_servers =
  if not (horizon > 0.) then bad "%s needs a positive horizon" name;
  let seed =
    match rest with None -> default_seed | Some s -> parse_int "seed" s
  in
  let mttf, mttr, degrade_prob =
    match name with
    | "moderate" -> (horizon, 0.05 *. horizon, 1.0)
    | _ -> (horizon /. 3., 0.1 *. horizon, 0.3)
  in
  random_plan ~degrade_prob ~degrade_factor:0.5 ~seed ~horizon ~n_servers
    ~mttf ~mttr ()

let parse_model spec ~horizon ~n_servers =
  let mttf = ref None
  and mttr = ref None
  and degrade = ref 0.
  and factor = ref 0.5
  and seed = ref default_seed in
  List.iter
    (fun part ->
      match String.index_opt part '=' with
      | None -> bad "expected key=value, got %S" part
      | Some i ->
        let k = String.sub part 0 i
        and v = String.sub part (i + 1) (String.length part - i - 1) in
        (match k with
        | "mttf" -> mttf := Some (parse_float "mttf" v)
        | "mttr" -> mttr := Some (parse_float "mttr" v)
        | "degrade" -> degrade := parse_float "degrade" v
        | "factor" -> factor := parse_float "factor" v
        | "seed" -> seed := parse_int "seed" v
        | _ -> bad "unknown key %S" k))
    (String.split_on_char ',' spec);
  match (!mttf, !mttr) with
  | Some mttf, Some mttr ->
    random_plan ~degrade_prob:!degrade ~degrade_factor:!factor ~seed:!seed
      ~horizon ~n_servers ~mttf ~mttr ()
  | _ -> bad "the model form needs both mttf= and mttr="

let parse_script spec =
  let parse_seg seg =
    match String.index_opt seg '@' with
    | None -> bad "expected kind@args, got %S" seg
    | Some i ->
      let kind = String.sub seg 0 i
      and rest = String.sub seg (i + 1) (String.length seg - i - 1) in
      let fields = String.split_on_char ':' rest in
      (match (kind, fields) with
      | "crash", [ at; sid ] ->
        Crash { at = parse_float "time" at; sid = parse_int "sid" sid }
      | "degrade", [ at; sid; f ] ->
        Degrade
          {
            at = parse_float "time" at;
            sid = parse_int "sid" sid;
            factor = parse_float "factor" f;
          }
      | "restore", [ at; sid ] ->
        Restore { at = parse_float "time" at; sid = parse_int "sid" sid }
      | _ -> bad "bad event %S" seg)
  in
  scripted
    (List.filter_map
       (fun seg ->
         let seg = String.trim seg in
         if seg = "" then None else Some (parse_seg seg))
       (String.split_on_char ';' spec))

let plan_of_spec spec ~horizon ~n_servers =
  let spec = String.trim spec in
  let preset name =
    let n = String.length name in
    if spec = name then Some (parse_preset name None ~horizon ~n_servers)
    else if String.length spec > n + 1 && String.sub spec 0 (n + 1) = name ^ ":"
    then
      let rest = String.sub spec (n + 1) (String.length spec - n - 1) in
      Some (parse_preset name (Some rest) ~horizon ~n_servers)
    else None
  in
  if spec = "none" || spec = "" then []
  else
    match preset "moderate" with
    | Some p -> p
    | None -> (
      match preset "severe" with
      | Some p -> p
      | None ->
        if String.contains spec '@' then parse_script spec
        else if String.contains spec '=' then
          parse_model spec ~horizon ~n_servers
        else bad "unrecognised spec %S (grammar: %s)" spec spec_doc)
