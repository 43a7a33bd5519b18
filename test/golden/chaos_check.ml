(* Checks a seeded fault storm end to end. [chaos_check TRACE M1 M2]:
   TRACE and M1 are the trace and metrics of one `slatree sim -n 3000
   --faults severe:7` run, M2 the metrics of a second run of the same
   command. Exits 1, naming the failed check, unless the trace holds
   fault.crash and fault.degrade instants, every fault instant carries
   its [t] argument, both runs wrote the same counters, and the storm
   crashed a server. Prints nothing when every check holds. *)

let parse path = Jsonx.parse (In_channel.with_open_bin path In_channel.input_all)
let str key j = Option.bind (Jsonx.member key j) Jsonx.to_str

let check name ok =
  if not ok then begin
    prerr_endline ("chaos check failed: " ^ name);
    exit 1
  end

let counters path =
  match Jsonx.member "counters" (parse path) with
  | Some (Jsonx.Obj kvs) -> List.sort compare kvs
  | _ -> failwith (path ^ ": no counters object")

let () =
  match Sys.argv with
  | [| _; trace; m1; m2 |] ->
    let events =
      Option.value ~default:[]
        (Option.bind (Jsonx.member "traceEvents" (parse trace)) Jsonx.to_list)
    in
    let instants =
      List.filter
        (fun e ->
          str "ph" e = Some "i"
          && Option.fold ~none:false
               ~some:(String.starts_with ~prefix:"fault.")
               (str "name" e))
        events
    in
    let seen name = List.exists (fun e -> str "name" e = Some name) instants in
    check "fault.crash instants in the trace" (seen "fault.crash");
    check "fault.degrade instants in the trace" (seen "fault.degrade");
    check "every fault instant has a t arg"
      (List.for_all
         (fun e ->
           Option.is_some (Option.bind (Jsonx.member "args" e) (Jsonx.member "t")))
         instants);
    let c1 = counters m1 in
    check "same-seed runs write equal counters" (c1 = counters m2);
    check "the storm crashes a server"
      (match List.assoc_opt "fault.crashes" c1 with
      | Some (Jsonx.Num n) -> n > 0.0
      | _ -> false)
  | _ ->
    prerr_endline "usage: chaos_check TRACE METRICS1 METRICS2";
    exit 2
