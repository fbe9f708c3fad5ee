(* Benchmark harness entry point:

     nestbench --workload NAME --seed N --seconds S --trace 0|1
               [--nestsql PATH] [--work DIR]

   Runs one workload, prints a human-readable report with every metric by
   name and unit, writes the recorded spans to DIR, and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer ones
   from the traced replay.  perfbench/README.md defines every metric. *)

let usage () =
  prerr_endline
    "usage: nestbench --workload outofcore_report|adhoc_oneshot|server_hot \
     --seed N --seconds S --trace 0|1 [--nestsql PATH] [--work DIR]";
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let nestsql = ref "_build/default/bin/nestsql.exe" in
  let work = ref ".bench_work" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--nestsql" :: v :: rest -> nestsql := v; parse rest
    | "--work" :: v :: rest -> work := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some a, Some b, Some c when b > 0. -> (a, b, c)
    | _ -> usage ()
  in
  Measure.mkdir_p !work;
  let report =
    match !workload with
    | "outofcore_report" ->
        Inproc.run Inproc.outofcore ~seed ~seconds ~trace ~work_dir:!work
    | "adhoc_oneshot" ->
        Inproc.run Inproc.adhoc ~seed ~seconds ~trace ~work_dir:!work
    | "server_hot" ->
        Server_hot.run ~nestsql:!nestsql ~seed ~seconds ~trace ~work_dir:!work
    | _ -> usage ()
  in
  if trace then
    Spans.write (Filename.concat !work ("spans-" ^ !workload ^ ".jsonl"));
  List.iter
    (fun (m : Report.metric) ->
      Report.line "%-34s %16.6f %s" m.name m.value m.unit_)
    report.metrics;
  Report.line "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    report.correct report.attempted report.failed
    (String.concat ", "
       (List.map
          (fun (m : Report.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          report.metrics))
