(* perfbench: the repository benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it times the workload for S seconds with no tracing
   and prints the end-to-end metrics; with --trace 1 it alternates
   untraced and traced passes and prints the per-layer metrics, and
   writes the traced pass's spans as Chrome trace-event JSON under
   perfbench/out/. Each workload checks its outputs first. The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   A failed check exits 1. See perfbench/README.md. *)

let workloads =
  [
    ("burst", Wl_sim.run Wl_sim.burst);
    ("farm", Wl_sim.run Wl_sim.farm);
    ("serve", Wl_serve.run);
    ("grid", Wl_grid.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload burst|farm|serve|grid --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := s
      | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := int_of_string v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  let traced = !trace = 1 in
  let o = run ~seed ~seconds:!seconds ~trace:traced in
  if traced then begin
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" !workload seed) in
    Tracer.write_chrome ~path ~limit:50_000;
    Printf.eprintf "spans written to %s\n%!" path
  end;
  List.iter print_endline o.Measure.notes;
  List.iter
    (fun m ->
      Printf.printf "%-40s %16.6g %s\n" m.Measure.name m.Measure.value m.Measure.unit_)
    o.Measure.metrics;
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) o.Measure.failures;
  let correct = o.Measure.failures = [] in
  let json =
    Jsonx.Obj
      [
        ("correct", Jsonx.Bool correct);
        ("attempted", Jsonx.Num (Float.of_int o.Measure.attempted));
        ("failed", Jsonx.Num (Float.of_int o.Measure.failed));
        ( "metrics",
          Jsonx.Obj
            (List.map
               (fun m ->
                 ( m.Measure.name,
                   Jsonx.Obj
                     [ ("value", Jsonx.Num m.Measure.value); ("unit", Jsonx.Str m.Measure.unit_) ]
                 ))
               o.Measure.metrics) );
      ]
  in
  print_endline (Jsonx.to_string json);
  exit (if correct then 0 else 1)
