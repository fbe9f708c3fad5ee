(* The in-process workloads (outofcore_report, adhoc_oneshot): one
   closed-loop client calling [Core.run] with default knobs.

   A run sets the database up several times (the median is [setup_s]; the
   first two copies each run one pass whose per-statement page I/O must
   agree exactly), warms up with one pass, then runs whole passes over the
   statement list until the summed operation time reaches the window.
   Answers are digested between operations, outside the timers, and
   checked after the window against nested iteration ([Exec.Nested_iter])
   over the generated tables.  With [~trace:true] every operation also
   goes through the layer replay ({!Layers}), which must take the same
   Auto rung and return the same bag. *)

module Planner = Optimizer.Planner

type spec = {
  name : string;
  tables : seed:int -> Workloads.table list;
  stmts : seed:int -> Workloads.stmt list;
  buffer_pages : int option;
  page_bytes : int option;
  indexes : (string * string) list;
  mode : Planner.mode option;
  engine : Exec.Plan.engine option;
}

let outofcore =
  {
    name = "outofcore_report";
    tables = Workloads.outofcore_tables;
    stmts = (fun ~seed:_ -> Workloads.outofcore_stmts);
    buffer_pages = Some Workloads.outofcore_buffer_pages;
    page_bytes = Some Workloads.outofcore_page_bytes;
    indexes = [];
    mode = None;
    engine = None;
  }

let adhoc =
  {
    name = "adhoc_oneshot";
    tables = Workloads.adhoc_tables;
    stmts = Workloads.adhoc_stmts;
    buffer_pages = None;
    page_bytes = None;
    indexes = [];
    mode = None;
    engine = None;
  }

type env = {
  db : Core.db;
  tables : Workloads.table list;
  stmts : Workloads.stmt array;
}

let setup (spec : spec) ~seed =
  let tables = spec.tables ~seed in
  let stmts = Array.of_list (spec.stmts ~seed) in
  let db =
    Core.create_db ?buffer_pages:spec.buffer_pages ?page_bytes:spec.page_bytes
      ()
  in
  List.iter (Workloads.define db) tables;
  List.iter (fun (table, column) -> Core.create_index db table ~column) spec.indexes;
  { db; tables; stmts }

let execute spec db sql =
  match Core.run ?mode:spec.mode ?engine:spec.engine db sql with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

let io_triple (io : Storage.Pager.stats) =
  Storage.Pager.(io.logical_reads, io.physical_reads, io.physical_writes)

(* ---------------- per-statement tallies ----------------------------- *)

type tally = {
  mutable runs : int;
  mutable errors : int;
  mutable first_error : string option;
  answers : (string, Measure.answer * int) Hashtbl.t; (* by bag digest *)
  mutable latencies_ms : float list; (* at nominal speed *)
  mutable logical : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
  vias : int array; (* nested, transformed, batched *)
}

let new_tally () =
  {
    runs = 0;
    errors = 0;
    first_error = None;
    answers = Hashtbl.create 2;
    latencies_ms = [];
    logical = 0;
    physical_reads = 0;
    physical_writes = 0;
    vias = [| 0; 0; 0 |];
  }

let via_index = function
  | Core.Via_nested -> 0
  | Core.Via_transformed -> 1
  | Core.Via_batched -> 2

let note_answer t (a : Measure.answer) =
  match Hashtbl.find_opt t.answers a.bag with
  | Some (a, n) -> Hashtbl.replace t.answers a.bag (a, n + 1)
  | None -> Hashtbl.add t.answers a.bag (a, 1)

let record t (r : (Core.execution, string) result) =
  t.runs <- t.runs + 1;
  match r with
  | Error msg ->
      t.errors <- t.errors + 1;
      if t.first_error = None then t.first_error <- Some msg
  | Ok e ->
      let l, pr, pw = io_triple e.Core.io in
      t.logical <- t.logical + l;
      t.physical_reads <- t.physical_reads + pr;
      t.physical_writes <- t.physical_writes + pw;
      let v = via_index e.Core.via in
      t.vias.(v) <- t.vias.(v) + 1;
      note_answer t (Measure.answer_of_relation e.Core.result)

(* ---------------- reference ----------------------------------------- *)

(* Nested iteration over the generated tables themselves (not through the
   pager, so the reference neither reads pages nor disturbs the pool). *)
let reference_of ~ref_dir env =
  let fp = Workloads.fingerprint env.tables in
  let rels = List.map (fun t -> (t.Workloads.name, Workloads.relation t)) env.tables in
  let lookup_relation name =
    match List.assoc_opt name rels with
    | Some r -> r
    | None -> raise (Storage.Catalog.Unknown_table name)
  in
  fun sql ->
    let key = Digest.to_hex (Digest.string (fp ^ "\n" ^ sql)) in
    match Measure.load_reference ~dir:ref_dir key with
    | Some r -> r
    | None ->
        let r =
          match Core.parse env.db sql with
          | Error e -> Error e
          | Ok q -> (
              match
                Exec.Presentation.apply_order q
                  (Exec.Nested_iter.eval_query ~lookup_relation Exec.Env.empty q)
              with
              | rel -> Ok (Measure.answer_of_relation rel)
              | exception e -> Error (Printexc.to_string e))
        in
        Measure.store_reference ~dir:ref_dir key r;
        r

(* ---------------- estimates ----------------------------------------- *)

let root_est_cost json =
  let key = "\"est_cost\":" in
  let n = String.length key in
  let rec find i =
    if i + n > String.length json then None
    else if String.sub json i n = key then
      Scanf.sscanf (String.sub json (i + n) (String.length json - i - n)) "%f"
        (fun f -> Some f)
    else find (i + 1)
  in
  find 0

(* Estimated page I/O of the rung Auto takes: the indexed-nested estimate,
   or the summed root cost of every segment of the transformed program.
   The fallback rungs carry no page estimate. *)
let estimate spec db sql =
  let cat = Core.catalog db in
  match Core.parse db sql with
  | Error _ -> None
  | Ok q -> (
      match Core.indexed_nested_choice db q with
      | Some (cost, _) -> Some cost
      | None -> (
          match Lazy.force (Core.prepare_query db q).Core.program with
          | Error _ -> None
          | Ok program -> (
              if Analysis.Diagnostics.has_errors (Planner.verify_program cat program)
              then None
              else
                match Planner.explain_plans ?mode:spec.mode cat program with
                | segs ->
                    List.fold_left
                      (fun acc (s : Planner.explained) ->
                        match (acc, root_est_cost s.Planner.seg_json) with
                        | Some a, Some c -> Some (a +. c)
                        | _ -> None)
                      (Some 0.) segs
                | exception _ -> None)))

let qerror ~est ~act =
  let e = Float.max est 1. and a = Float.max act 1. in
  Float.max (e /. a) (a /. e)

(* ---------------- statement classes --------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Kim's class plus the predicate form, for the per-class failure counts. *)
let class_label db (s : Workloads.stmt) =
  if s.label <> "" then s.label
  else
    let kim =
      match Core.classify db s.sql with
      | Ok (Some c) -> Optimizer.Classify.name c
      | Ok None -> "flat"
      | Error _ -> "invalid"
    in
    let form =
      List.find_opt (contains s.sql)
        [ "NOT EXISTS"; "EXISTS"; "NOT IN"; " ANY "; " ALL "; "ORDER BY" ]
    in
    match form with
    | Some f -> kim ^ "/" ^ String.trim f
    | None -> kim

(* ---------------- the run ------------------------------------------- *)

let setup_reps = 5

(* Layer totals of the traced replay, in seconds unless noted. *)
type layer_totals = {
  mutable ops : int;
  mutable untraced_s : float;
  mutable traced_s : float;
  mutable mismatches : int;
  mutable rows_closed : int;
  mutable result_rows : int;
  mutable hash_build_s : float;
  mutable sort_build_s : float;
}

let new_layer_totals () =
  {
    ops = 0;
    untraced_s = 0.;
    traced_s = 0.;
    mismatches = 0;
    rows_closed = 0;
    result_rows = 0;
    hash_build_s = 0.;
    sort_build_s = 0.;
  }

(* [speed] scales the measured span times to nominal speed. *)
let layer_span_metrics ~speed ~ops =
  let per_op_us name =
    Measure.ratio (Spans.total name *. 1e6 *. speed) (float_of_int ops)
  in
  [
    Report.metric "sql.parse_us" "us" (per_op_us "sql.parse");
    Report.metric "sql.analyze_us" "us" (per_op_us "sql.analyze");
    Report.metric "optimizer.classify_us" "us" (per_op_us "optimizer.classify");
    Report.metric "optimizer.transform_us" "us" (per_op_us "optimizer.transform");
    Report.metric "optimizer.decide_us" "us" (per_op_us "optimizer.decide");
    Report.metric "analysis.verify_us" "us" (per_op_us "analysis.verify");
    Report.metric "exec.plan_exec_ms" "ms" (per_op_us "exec.plan_exec" /. 1e3);
    Report.metric "exec.nested_ms" "ms" (per_op_us "exec.nested" /. 1e3);
  ]

(* Run one statement untraced and then through the layer replay; the two
   must agree on the rung and the bag. *)
let traced_op spec db lt ~op sql =
  let r, dt = Measure.timed (fun () -> execute spec db sql) in
  let replayed, dt' =
    Measure.timed (fun () ->
        match Layers.replay ?mode:spec.mode ?engine:spec.engine ~op db sql with
        | r -> r
        | exception e -> Error (Printexc.to_string e))
  in
  lt.ops <- lt.ops + 1;
  lt.untraced_s <- lt.untraced_s +. dt;
  lt.traced_s <- lt.traced_s +. dt';
  (match (r, replayed) with
  | Ok e, Ok o ->
      lt.rows_closed <- lt.rows_closed + o.Layers.rows_closed;
      lt.result_rows <-
        lt.result_rows + Relalg.Relation.cardinality e.Core.result;
      lt.hash_build_s <- lt.hash_build_s +. o.Layers.hash_build_s;
      lt.sort_build_s <- lt.sort_build_s +. o.Layers.sort_build_s;
      if
        e.Core.via <> o.Layers.via
        || (Measure.answer_of_relation e.Core.result).bag
           <> (Measure.answer_of_relation o.Layers.result).bag
      then lt.mismatches <- lt.mismatches + 1
  | Error _, Error _ -> ()
  | _ -> lt.mismatches <- lt.mismatches + 1);
  (r, dt, dt')

let run spec ~seed ~seconds ~trace ~work_dir : Report.t =
  (* set-up, repeated; the first two copies each run one counter pass *)
  let setup_times = ref [] and counter_passes = ref [] and last = ref None in
  for i = 1 to setup_reps do
    Gc.compact ();
    let cal = Measure.scaler () in
    let env, dt = Measure.timed (fun () -> setup spec ~seed) in
    setup_times := Measure.scale cal dt :: !setup_times;
    if i <= 2 then
      counter_passes :=
        Array.map
          (fun (s : Workloads.stmt) ->
            match execute spec env.db s.sql with
            | Ok e -> Some (io_triple e.Core.io)
            | Error _ -> None)
          env.stmts
        :: !counter_passes;
    last := Some env
  done;
  let env = Option.get !last in
  let counters_repeat =
    match !counter_passes with [ a; b ] -> a = b | _ -> false
  in
  let n = Array.length env.stmts in
  let tallies = Array.init n (fun _ -> new_tally ()) in
  (* warm-up: one untimed pass *)
  Array.iter (fun (s : Workloads.stmt) -> ignore (execute spec env.db s.sql)) env.stmts;
  Gc.compact ();
  Measure.reset_peak_rss None;
  (* whole passes until the operation time, at nominal speed, fills the
     window, so a run does the same work whatever the machine's speed;
     a machine three times slower than nominal is cut at 3x the window *)
  let latencies = ref [] and busy = ref 0. and raw_busy = ref 0. in
  let cal = Measure.scaler () in
  let lt = new_layer_totals () in
  let op_id = ref 0 in
  while !busy < seconds && !raw_busy < 3. *. seconds do
    Array.iteri
      (fun i (s : Workloads.stmt) ->
        incr op_id;
        let r, dt, spent =
          if trace then
            let r, dt, dt' = traced_op spec env.db lt ~op:!op_id s.sql in
            (r, dt, dt +. dt')
          else
            let r, dt = Measure.timed (fun () -> execute spec env.db s.sql) in
            (r, dt, dt)
        in
        let f = Measure.factor cal in
        Measure.advance cal spent;
        raw_busy := !raw_busy +. spent;
        busy := !busy +. (spent *. f);
        latencies := (dt *. f) :: !latencies;
        tallies.(i).latencies_ms <- (dt *. f *. 1e3) :: tallies.(i).latencies_ms;
        record tallies.(i) r)
      env.stmts
  done;
  let peak_rss = Measure.peak_rss_mib None in
  let ops = List.length !latencies in
  let window_s = Measure.sum !latencies in
  let speed = Measure.nominal_calibration_s /. Measure.median cal.Measure.cals in
  (* answers against nested iteration *)
  let ref_dir = Filename.concat work_dir "ref" in
  Measure.mkdir_p ref_dir;
  let reference = reference_of ~ref_dir env in
  let labels = Array.map (class_label env.db) env.stmts in
  let sum_tallies f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  Array.iteri
    (fun i t ->
      let c = Report.count_class labels.(i) in
      c.ops <- c.ops + t.runs;
      c.errors <- c.errors + t.errors;
      c.latencies_ms <- List.rev_append t.latencies_ms c.latencies_ms;
      if t.runs > 0 then
        match reference env.stmts.(i).Workloads.sql with
        | Error msg ->
            (* the reference raised: every answer the program gave is wrong *)
            Hashtbl.iter (fun _ (_, k) -> c.wrong <- c.wrong + k) t.answers;
            if Hashtbl.length t.answers > 0 then
              Report.line "reference error on %S: %s" env.stmts.(i).sql msg
        | Ok reference ->
            Hashtbl.iter
              (fun _ (a, k) ->
                match Measure.verdict ~reference a with
                | Measure.Same -> ()
                | Measure.Multiplicity -> c.multiplicity <- c.multiplicity + k
                | Measure.Wrong ->
                    c.wrong <- c.wrong + k;
                    Report.line "wrong answer: %S (%d rows, reference %d)"
                      env.stmts.(i).sql a.card reference.card)
              t.answers)
    tallies;
  let failed, wrong = Report.totals () in
  let physical =
    sum_tallies (fun t -> t.physical_reads + t.physical_writes)
  in
  let fops = float_of_int ops in
  Report.line "workload %s seed %d: %d statements, %d operations in %.3f s \
               (summed operation time at nominal speed; measured speed %.3f \
               of nominal)"
    spec.name seed n ops window_s speed;
  Report.line "self-check: per-statement page I/O of two fresh set-ups repeats \
               exactly: %s"
    (if counters_repeat then "yes" else "NO");
  Report.print_classes ();
  Report.line "failed_frac = %.6f frac (%d of %d operations)"
    (Measure.ratio (float_of_int failed) fops) failed ops;
  let latency_ms = List.map (fun s -> s *. 1e3) !latencies in
  let e2e =
    [
      Report.metric "setup_s" "s" (Measure.median !setup_times);
      Report.metric "ops_per_s" "1/s" (Measure.ratio fops window_s);
      Report.metric "latency_p50_ms" "ms" (Measure.quantile latency_ms 0.5);
      Report.metric "latency_p90_ms" "ms" (Measure.quantile latency_ms 0.9);
      Report.metric "page_io_per_op" "pages/op"
        (Measure.ratio (float_of_int physical) fops);
      Report.metric "peak_rss_mb" "MiB" peak_rss;
    ]
  in
  Report.line "latency samples: %d (p50 and p90 are over all of them)" ops;
  let metrics =
    if not trace then e2e
    else begin
      (* estimated against measured page I/O, per statement, on a fresh
         copy so the pool the window left behind plays no part *)
      let fresh = setup spec ~seed in
      let qerrors = ref [] in
      if spec.name = outofcore.name then
        Report.line "%-12s %-18s %12s %12s %8s" "statement" "rung" "est_io"
          "measured_io" "q-error";
      Array.iteri
        (fun i (s : Workloads.stmt) ->
          let t = tallies.(i) in
          let runs = t.runs - t.errors in
          if runs > 0 then
            let act =
              float_of_int (t.physical_reads + t.physical_writes)
              /. float_of_int runs
            in
            let rung =
              match Array.to_list t.vias with
              | [ _; 0; 0 ] -> "nested_iteration"
              | [ 0; _; 0 ] -> "transformed"
              | [ 0; 0; _ ] -> "batched"
              | _ -> "mixed"
            in
            let est = estimate spec fresh.db s.sql in
            Option.iter (fun est -> qerrors := qerror ~est ~act :: !qerrors) est;
            if spec.name = outofcore.name then
              Report.line "%-12s %-18s %12s %12.1f %8s" labels.(i) rung
                (match est with Some e -> Printf.sprintf "%.1f" e | None -> "-")
                act
                (match est with
                | Some est -> Printf.sprintf "%.2f" (qerror ~est ~act)
                | None -> "-"))
        env.stmts;
      Report.line "q-error over %d statements with an estimate" (List.length !qerrors);
      Report.line "traced replay: %d operations, %d differ from Core.run in rung \
                   or bag"
        lt.ops lt.mismatches;
      let vias i = float_of_int (sum_tallies (fun t -> t.vias.(i))) in
      let done_ops = vias 0 +. vias 1 +. vias 2 in
      let logical = float_of_int (sum_tallies (fun t -> t.logical)) in
      let preads = float_of_int (sum_tallies (fun t -> t.physical_reads)) in
      layer_span_metrics ~speed ~ops
      @ [
          Report.metric "exec.rows_per_result_row" "rows/row"
            (Measure.ratio (float_of_int lt.rows_closed)
               (float_of_int lt.result_rows));
          Report.metric "exec.hash_build_ms" "ms"
            (Measure.ratio (lt.hash_build_s *. 1e3 *. speed) fops);
          Report.metric "storage.logical_reads_per_op" "pages/op"
            (Measure.ratio logical fops);
          Report.metric "storage.physical_reads_per_op" "pages/op"
            (Measure.ratio preads fops);
          Report.metric "storage.physical_writes_per_op" "pages/op"
            (Measure.ratio
               (float_of_int (sum_tallies (fun t -> t.physical_writes)))
               fops);
          Report.metric "storage.hit_rate" "frac"
            (if logical = 0. then 0. else 1. -. (preads /. logical));
          Report.metric "storage.sort_build_ms" "ms"
            (Measure.ratio (lt.sort_build_s *. 1e3 *. speed) fops);
          Report.metric "optimizer.via_transformed_frac" "frac"
            (Measure.ratio (vias 1) done_ops);
          Report.metric "optimizer.via_nested_frac" "frac"
            (Measure.ratio (vias 0) done_ops);
          Report.metric "optimizer.via_batched_frac" "frac"
            (Measure.ratio (vias 2) done_ops);
          Report.metric "optimizer.io_qerror_p50" "ratio"
            (Measure.median !qerrors);
          Report.metric "optimizer.io_qerror_max" "ratio"
            (List.fold_left Float.max 0. !qerrors);
          Report.metric "server.busy_ms_per_req" "ms" 0.;
          Report.metric "server.wait_ms_per_req" "ms" 0.;
          Report.metric "server.plan_cache_hit_frac" "frac" 0.;
          Report.metric "server.invalidations" "count" 0.;
          Report.metric "server.load_ms" "ms" 0.;
          Report.metric "trace_overhead_frac" "frac"
            (Measure.ratio (lt.traced_s -. lt.untraced_s) lt.untraced_s);
        ]
    end
  in
  {
    Report.correct =
      wrong = 0 && counters_repeat && ((not trace) || lt.mismatches = 0);
    attempted = ops;
    failed;
    metrics;
  }
