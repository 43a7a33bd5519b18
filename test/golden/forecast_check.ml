(* Checks a predictive autoscaling run's forecast evidence.
   [forecast_check TRACE]: TRACE is the trace of one `slatree elastic
   --policy predictive --scale smoke` run. Exits 1, naming the failed
   check, unless the trace holds elastic.forecast instants, every one
   carries its sim_t, horizon, predicted_gain, window_gain, rent and
   pending_boots arguments, and at least one predicted a gain above the
   rent. Prints nothing when every check holds. *)

let parse path = Jsonx.parse (In_channel.with_open_bin path In_channel.input_all)
let str key j = Option.bind (Jsonx.member key j) Jsonx.to_str

let check name ok =
  if not ok then begin
    prerr_endline ("forecast check failed: " ^ name);
    exit 1
  end

let arg key e = Option.bind (Jsonx.member "args" e) (Jsonx.member key)
let num key e = Option.bind (arg key e) Jsonx.to_float

let () =
  match Sys.argv with
  | [| _; trace |] ->
    let events =
      Option.value ~default:[]
        (Option.bind (Jsonx.member "traceEvents" (parse trace)) Jsonx.to_list)
    in
    let instants =
      List.filter
        (fun e -> str "ph" e = Some "i" && str "name" e = Some "elastic.forecast")
        events
    in
    check "elastic.forecast instants in the trace" (instants <> []);
    List.iter
      (fun key ->
        check
          (Printf.sprintf "every forecast instant has a %s arg" key)
          (List.for_all (fun e -> Option.is_some (arg key e)) instants))
      [ "sim_t"; "horizon"; "predicted_gain"; "window_gain"; "rent"; "pending_boots" ];
    check "a forecast predicted a gain above the rent"
      (List.exists
         (fun e ->
           match (num "predicted_gain" e, num "rent" e) with
           | Some p, Some r -> p > r
           | _ -> false)
         instants)
  | _ ->
    prerr_endline "usage: forecast_check TRACE";
    exit 2
