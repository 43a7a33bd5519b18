(* Online arrival-rate forecasting (EWMA and additive Holt–Winters)
   plus the offline perfect-foresight oracle schedule. See the .mli
   for the model and determinism contract.

   Both online models are O(1) per update with all state in a handful
   of floats, so the controller can afford one update per tick even at
   the 1M-query bench scale (the bench's forecast section measures
   ns/update to keep this honest). *)

type model =
  | Ewma of { alpha : float }
  | Holt_winters of {
      alpha : float;
      beta : float;
      gamma : float;
      season : int;
      seasonal : float array;  (* one additive offset per tick-in-cycle *)
      warmup : float array;  (* first cycle's raw samples *)
    }

type t = {
  model : model;
  mutable n : int;  (* samples observed *)
  mutable level : float;
  mutable trend : float;
  (* EWMA of the raw signal, kept by both models: it seeds EWMA
     prediction directly and covers Holt–Winters' first cycle, before
     the seasonal profile exists. *)
  mutable warm_level : float;
}

let check_weight name w =
  if not (w > 0.0 && w <= 1.0) then
    invalid_arg (Printf.sprintf "Forecast.%s: weight must be in (0, 1]" name)

let ewma ?(alpha = 0.4) () =
  check_weight "ewma" alpha;
  { model = Ewma { alpha }; n = 0; level = 0.0; trend = 0.0; warm_level = 0.0 }

(* Two season-long float arrays per forecaster: the cap keeps a spec
   from asking for gigabytes. A cycle of one-minute ticks over a week
   is 10 080. *)
let max_season = 100_000

let holt_winters ?(alpha = 0.35) ?(beta = 0.1) ?(gamma = 0.3) ~season () =
  check_weight "holt_winters" alpha;
  check_weight "holt_winters" beta;
  check_weight "holt_winters" gamma;
  if season < 2 then invalid_arg "Forecast.holt_winters: season must be >= 2";
  if season > max_season then
    invalid_arg
      (Printf.sprintf "Forecast.holt_winters: season must be <= %d" max_season);
  {
    model =
      Holt_winters
        {
          alpha;
          beta;
          gamma;
          season;
          seasonal = Array.make season 0.0;
          warmup = Array.make season 0.0;
        };
    n = 0;
    level = 0.0;
    trend = 0.0;
    warm_level = 0.0;
  }

let name t =
  match t.model with
  | Ewma { alpha } -> Printf.sprintf "ewma(%.2f)" alpha
  | Holt_winters { season; _ } -> Printf.sprintf "hw(%d)" season

let n_obs t = t.n

let ready t =
  match t.model with
  | Ewma _ -> t.n >= 1
  | Holt_winters h -> t.n >= h.season

let observe_warm t y =
  let alpha = match t.model with Ewma { alpha } -> alpha | Holt_winters h -> h.alpha in
  if t.n = 0 then t.warm_level <- y
  else t.warm_level <- t.warm_level +. (alpha *. (y -. t.warm_level))

let observe t y =
  observe_warm t y;
  (match t.model with
  | Ewma _ -> t.level <- t.warm_level
  | Holt_winters h ->
    let p = t.n mod h.season in
    if t.n < h.season then begin
      h.warmup.(p) <- y;
      (* One full cycle seen: level = cycle mean, trend flat, seasonal
         profile = per-slot deviation from the mean. A slope estimate
         from a single cycle would alias the seasonality, so the trend
         starts at zero and is learned by the beta updates. *)
      if t.n = h.season - 1 then begin
        let mean = Array.fold_left ( +. ) 0.0 h.warmup /. Float.of_int h.season in
        t.level <- mean;
        t.trend <- 0.0;
        Array.iteri (fun i v -> h.seasonal.(i) <- v -. mean) h.warmup
      end
    end
    else begin
      let l' = (h.alpha *. (y -. h.seasonal.(p))) +. ((1.0 -. h.alpha) *. (t.level +. t.trend)) in
      t.trend <- (h.beta *. (l' -. t.level)) +. ((1.0 -. h.beta) *. t.trend);
      h.seasonal.(p) <- (h.gamma *. (y -. l')) +. ((1.0 -. h.gamma) *. h.seasonal.(p));
      t.level <- l'
    end);
  t.n <- t.n + 1

let predict t ~horizon =
  if horizon < 1 then invalid_arg "Forecast.predict: horizon must be >= 1";
  if t.n = 0 then 0.0
  else
    match t.model with
    | Ewma _ -> t.level
    | Holt_winters h ->
      if t.n < h.season then t.warm_level
      else
        t.level
        +. (Float.of_int horizon *. t.trend)
        +. h.seasonal.((t.n + horizon - 1) mod h.season)

let spec_doc = "ewma | ewma:ALPHA | hw:SEASON | hw:SEASON:ALPHA:BETA:GAMMA"

(* Each error names the part of the spec that broke its rule, and the
   rule: a season must be an integer in [2, max_season], a weight a
   number in (0, 1]. *)
let of_spec s =
  let ( let* ) = Result.bind in
  let fail fmt =
    Printf.ksprintf
      (fun e -> Error (Printf.sprintf "bad forecaster spec %S: %s (grammar: %s)" s e spec_doc))
      fmt
  in
  let weight name x =
    match float_of_string_opt x with
    | Some w when w > 0.0 && w <= 1.0 -> Ok w
    | Some _ -> fail "%s %S must be in (0, 1]" name x
    | None -> fail "%s %S is not a number" name x
  in
  let season p =
    match int_of_string_opt p with
    | Some n when n < 2 -> fail "season %S must be >= 2" p
    | Some n when n > max_season -> fail "season %S exceeds the cap of %d" p max_season
    | Some n -> Ok n
    | None -> fail "season %S is not an integer" p
  in
  match String.split_on_char ':' s with
  | [ "ewma" ] -> Ok (ewma ())
  | [ "ewma"; a ] ->
    let* alpha = weight "alpha" a in
    Ok (ewma ~alpha ())
  | [ "hw"; p ] ->
    let* season = season p in
    Ok (holt_winters ~season ())
  | [ "hw"; p; a; b; g ] ->
    let* season = season p in
    let* alpha = weight "alpha" a in
    let* beta = weight "beta" b in
    let* gamma = weight "gamma" g in
    Ok (holt_winters ~alpha ~beta ~gamma ~season ())
  | _ -> fail "not one of the forms"

(* ------------------------------------------------------------------ *)
(* The offline oracle. *)

module Oracle = struct
  type schedule = {
    targets : int array;  (* per-window pool target, window w = [w*iv, (w+1)*iv) *)
    interval : float;
    lead : float;
    min_servers : int;
  }

  let schedule ~queries ~interval ~lead ~rho ~min_servers ~max_servers () =
    if interval <= 0.0 then
      invalid_arg "Forecast.Oracle.schedule: interval must be positive";
    if lead < 0.0 then
      invalid_arg "Forecast.Oracle.schedule: lead must be non-negative";
    if rho <= 0.0 then invalid_arg "Forecast.Oracle.schedule: rho must be positive";
    if min_servers < 1 || max_servers < min_servers then
      invalid_arg "Forecast.Oracle.schedule: bad pool bounds";
    let horizon =
      Array.fold_left (fun acc q -> Float.max acc q.Query.arrival) 0.0 queries
    in
    let n_windows = 1 + int_of_float (horizon /. interval) in
    let work = Array.make n_windows 0.0 in
    Array.iter
      (fun q ->
        let w = int_of_float (q.Query.arrival /. interval) in
        let w = min w (n_windows - 1) in
        (* the oracle prices true demand: actual service time, not the
           estimate the online decision makers see *)
        work.(w) <- work.(w) +. q.Query.size)
      queries;
    let targets =
      Array.map
        (fun wk ->
          let needed = int_of_float (Float.ceil (wk /. interval /. rho)) in
          max min_servers (min max_servers needed))
        work
    in
    { targets; interval; lead; min_servers }

  let target s ~now =
    let n = Array.length s.targets in
    if n = 0 then s.min_servers
    else begin
      (* max need over the windows covered by [now, now + lead +
         interval]: capacity requested now must already be there for
         everything landing before a later request could boot. *)
      let first = max 0 (int_of_float (now /. s.interval)) in
      if first >= n then s.min_servers  (* past the trace: drain to the floor *)
      else begin
        let last = int_of_float ((now +. s.lead +. s.interval) /. s.interval) in
        let last = min (max last first) (n - 1) in
        let t = ref s.min_servers in
        for w = first to last do
          if s.targets.(w) > !t then t := s.targets.(w)
        done;
        !t
      end
    end

  let rho_candidates = [| 0.55; 0.7; 0.8; 0.9; 1.0 |]
end
