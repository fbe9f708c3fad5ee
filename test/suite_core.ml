(* The public facade: the five-line API a downstream user sees. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module F = Workload.Fixtures

let make_parts_db () =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:64 () in
  let define name rel =
    Core.define_table db name
      (List.map
         (fun (c : Core.Schema.column) -> (c.name, c.ty))
         (Core.Schema.columns (Relation.schema rel)))
      (List.map Relalg.Row.to_list (Relation.rows rel))
  in
  define "PARTS" F.kiessling_parts;
  define "SUPPLY" F.kiessling_supply;
  db

let test_define_and_table () =
  let db = make_parts_db () in
  Alcotest.(check int) "parts cardinality" 3
    (Relation.cardinality (Core.table db "PARTS"));
  Alcotest.(check bool) "unknown table raises" true
    (try
       ignore (Core.table db "NOPE");
       false
     with Core.Catalog.Unknown_table _ -> true)

let test_parse_and_classify () =
  let db = make_parts_db () in
  (match Core.parse db F.query_q2 with
  | Ok q -> Alcotest.(check int) "depth" 1 (Sql.Ast.nesting_depth q)
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Core.classify db F.query_q2 with
  | Ok (Some Optimizer.Classify.Type_ja) -> ()
  | _ -> Alcotest.fail "classification");
  match Core.parse db "SELECT NOPE FROM PARTS" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected analysis error"

let test_run_strategies_agree () =
  let db = make_parts_db () in
  let nested =
    Result.get_ok (Core.run ~strategy:Core.Nested_iteration db F.query_q2)
  in
  let transformed =
    Result.get_ok
      (Core.run ~strategy:(Core.Transformed Optimizer.Planner.Auto) db
         F.query_q2)
  in
  Alcotest.(check bool) "nested is not transformed" true
    (nested.Core.via = Core.Via_nested);
  Alcotest.(check bool) "transformed is" true
    (transformed.Core.via = Core.Via_transformed);
  Alcotest.(check bool) "program attached" true
    (transformed.Core.program <> None);
  Alcotest.(check bool) "results equal" true
    (Relation.equal_bag nested.Core.result transformed.Core.result);
  (* temps are cleaned up: the run can be repeated *)
  let again =
    Result.get_ok
      (Core.run ~strategy:(Core.Transformed Optimizer.Planner.Auto) db
         F.query_q2)
  in
  Alcotest.(check bool) "repeatable" true
    (Relation.equal_bag transformed.Core.result again.Core.result)

let test_auto_falls_back () =
  let db = make_parts_db () in
  (* NOT IN is untransformable by default: Auto must fall back. *)
  let e =
    Result.get_ok
      (Core.run db "SELECT PNUM FROM PARTS WHERE PNUM NOT IN (SELECT PNUM \
                    FROM SUPPLY WHERE QUAN > 4)")
  in
  Alcotest.(check bool) "fell back to nested iteration" true
    (e.Core.via = Core.Via_nested);
  Alcotest.(check int) "correct answer" 2 (Relation.cardinality e.Core.result)

let test_compare_strategies () =
  let db = make_parts_db () in
  let c = Result.get_ok (Core.compare_strategies db F.query_q2) in
  Alcotest.(check bool) "agree" true c.Core.agree;
  Alcotest.(check bool) "transformed present" true (c.Core.transformed <> None)

let test_explain_output () =
  let db = make_parts_db () in
  let text = Result.get_ok (Core.explain db F.query_q2) in
  Alcotest.(check bool) "mentions merge or nested-loop join" true
    (let has needle =
       let re = ref false in
       String.iteri
         (fun i _ ->
           if
             i + String.length needle <= String.length text
             && String.sub text i (String.length needle) = needle
           then re := true)
         text;
       !re
     in
     has "join" && has "Scan")

let test_io_accounting_isolated () =
  let db = make_parts_db () in
  let e1 = Result.get_ok (Core.run ~strategy:Core.Nested_iteration db F.query_q2) in
  let e2 = Result.get_ok (Core.run ~strategy:Core.Nested_iteration db F.query_q2) in
  (* Second run may be cheaper (pool warm) but never negative, and logical
     reads must be equal. *)
  Alcotest.(check int) "same logical reads"
    e1.Core.io.Core.Pager.logical_reads e2.Core.io.Core.Pager.logical_reads;
  Alcotest.(check bool) "non-negative" true
    (e2.Core.io.Core.Pager.physical_reads >= 0)

(* EXPLAIN prints the decision run executes: under Auto it answers
   whenever run does, and names the rung run took — with no index and
   with a B-tree on every column.  The rewrite prints no header. *)
let explained_via text =
  match
    List.find_opt
      (fun rung ->
        Astring.String.is_prefix
          ~affix:("auto: " ^ Core.rung_name rung ^ "\n")
          text)
      Core.[ Indexed_nested; Transformed_rung; Batched_rung; Nested_rung ]
  with
  | Some rung -> Core.rung_via rung
  | None -> Core.Via_transformed

let test_explain_names_run_rung =
  QCheck2.Test.make ~name:"auto: EXPLAIN names the rung run takes" ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let case = Oracle.Gen.case (Random.State.make [| seed |]) in
      List.for_all
        (fun indexed ->
          let db = Oracle.Repro.build_db case in
          if indexed then Oracle.Matrix.index_everything db;
          match Core.run db case.Oracle.Repro.sql with
          | Error _ | (exception Exec.Nested_iter.Runtime_error _) -> true
          | Ok e -> (
              match Core.explain_query db case.Oracle.Repro.sql with
              | Error msg ->
                  QCheck2.Test.fail_reportf "%s\nexplain refused: %s"
                    case.Oracle.Repro.sql msg
              | Ok text ->
                  explained_via text = e.Core.via
                  || QCheck2.Test.fail_reportf "%s\nrun took %s, explain:\n%s"
                       case.Oracle.Repro.sql (Core.via_name e.Core.via) text))
        [ false; true ])

(* The §7 crossover under EXPLAIN: four PARTS rows probing a B-tree on a
   2 000-row SUPPLY, so the indexed rung wins.  A rewrite the decision
   turned down is printed as the alternative; a NOT IN has no rewrite,
   and EXPLAIN prints the header and the probes alone. *)
let test_explain_indexed_pick () =
  let rng = Random.State.make [| 42 |] in
  let db = Core.create_db ~buffer_pages:64 ~page_bytes:256 () in
  List.iter
    (fun (name, rel) ->
      Core.Catalog.register_relation (Core.catalog db) name rel)
    [
      ("PARTS", Workload.Gen.parts rng ~n:4 ~key_range:500);
      ("SUPPLY", Workload.Gen.supply rng ~n:2_000 ~key_range:500);
    ];
  Core.create_index db "SUPPLY" ~column:"PNUM";
  let has text affix = Astring.String.is_infix ~affix text in
  let explain text =
    match Core.explain_query db text with
    | Ok plan -> plan
    | Error msg -> Alcotest.failf "explain refused: %s" msg
  in
  let plan =
    explain
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)"
  in
  Alcotest.(check bool) "indexed header" true
    (Astring.String.is_prefix ~affix:"auto: indexed nested iteration\n" plan);
  Alcotest.(check bool) "estimate below floor" true
    (has plan "picked — est. " && has plan "< transformed floor ");
  Alcotest.(check bool) "rewrite shown as the alternative" true
    (has plan "\ntransformed alternative:\n");
  let not_in =
    "SELECT PNUM FROM PARTS WHERE QOH NOT IN (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM)"
  in
  let plan = explain not_in in
  Alcotest.(check bool) "NOT IN: indexed header" true
    (Astring.String.is_prefix ~affix:"auto: indexed nested iteration\n" plan);
  Alcotest.(check bool) "NOT IN: probes" true
    (has plan "\n  probe: SUPPLY.PNUM = PARTS.PNUM");
  Alcotest.(check bool) "NOT IN: rewrite refused" true
    (has plan "transformed               refused — not transformable");
  Alcotest.(check bool) "NOT IN: no alternative" false
    (has plan "transformed alternative");
  match Core.run db not_in with
  | Ok e ->
      Alcotest.(check string) "run takes nested iteration" "nested_iteration"
        (Core.via_name e.Core.via)
  | Error msg -> Alcotest.failf "run refused: %s" msg

(* The bench measures every strategy through [Core.run_prepared], which
   is faithful only if Core adds no page I/O and changes no answer over the
   executor it dispatches to.  On identically built databases, a forced
   strategy's [io] and bag equal those of calling that executor directly:
   [Exec.Sysr_iteration.run] for nested iteration, [Planner.run_program]
   on [Core.transform]'s program for the rewrite under both planner modes.
   Cases either side refuses are skipped. *)
let test_core_adds_no_io =
  QCheck2.Test.make ~name:"forced strategies: Core adds no page I/O"
    ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let case = Oracle.Gen.case (Random.State.make [| seed |]) in
      let sql = case.Oracle.Repro.sql in
      let refusable f =
        try f () with
        | Exec.Nested_iter.Runtime_error msg
        | Exec.Plan.Plan_error msg
        | Optimizer.Planner.Planning_error msg ->
            Error msg
      in
      let executor mode db =
        let catalog = Core.catalog db in
        let pager = Core.Catalog.pager catalog in
        let metered run =
          let before = Core.Pager.snapshot pager in
          let result = run () in
          (result, Core.Pager.diff_since pager before)
        in
        match mode with
        | None ->
            Result.map
              (fun q -> metered (fun () -> Exec.Sysr_iteration.run catalog q))
              (Core.parse db sql)
        | Some mode ->
            Result.map
              (fun program ->
                metered (fun () ->
                    Optimizer.Planner.run_program ~mode catalog program))
              (Core.transform db sql)
      in
      List.for_all
        (fun (strategy, mode) ->
          let fresh () = Oracle.Repro.build_db case in
          match
            ( refusable (fun () -> Core.run ~strategy ?mode (fresh ()) sql),
              refusable (fun () -> executor mode (fresh ())) )
          with
          | Ok e, Ok (result, io) ->
              (Relation.equal_bag e.Core.result result && e.Core.io = io)
              || QCheck2.Test.fail_reportf
                   "%s\n%s: Core %d rows, %a; executor %d rows, %a" sql
                   (Core.strategy_name strategy)
                   (Relation.cardinality e.Core.result)
                   Core.Pager.pp_stats e.Core.io
                   (Relation.cardinality result)
                   Core.Pager.pp_stats io
          | _ -> true)
        Optimizer.Planner.
          [
            (Core.Nested_iteration, None);
            (Core.Transformed Auto, Some Paper1987);
            (Core.Transformed Auto, Some Hybrid);
          ])

(* Every heap an operator creates (sort runs and output, a materialized
   nested-loop inner, temps) is deleted by the time the run returns, so
   the simulated disk holds exactly what it held before.  Larger PARTS /
   SUPPLY tables (with NULLs) over a 3-page pool of 64-byte pages make
   every sort a multi-run, multi-pass merge. *)
let test_runs_free_their_heaps () =
  (* [qoh_nulls:false] keeps the §8 ALL rewrite, which refuses a nullable
     outer column, on the transformed path. *)
  let make_db ~qoh_nulls =
    let db = Core.create_db ~buffer_pages:3 ~page_bytes:64 () in
    let int_or_null n = if n mod 7 = 0 then Value.Null else Value.Int n in
    let qoh n = if qoh_nulls then int_or_null n else Value.Int n in
    Core.define_table db "PARTS" F.parts_schema
      (List.init 40 (fun n -> [ Value.Int (n mod 25); qoh ((n * 7) mod 9) ]));
    Core.define_table db "SUPPLY" F.supply_schema
      (List.init 160 (fun n ->
           [
             int_or_null ((n * 13) mod 31);
             Value.Int (n mod 6);
             F.date (if n mod 3 = 0 then "7-3-79" else "8-10-81");
           ]));
    db
  in
  let queries =
    [
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
       QUAN > 2)";
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
       SUPPLY.QUAN >= PARTS.QOH)";
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)";
      F.query_q2;
      "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT PNUM FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 3)";
    ]
  in
  (* The band aggregate's shapes: at B = 3 it holds one page of left rows
     per chunk, so both take several chunks, and Q5's streamed inner is
     materialized once and re-read per chunk. *)
  let band_queries =
    [
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < '1-1-80')";
      "SELECT PNUM FROM PARTS WHERE QOH > ALL (SELECT QUAN FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)";
    ]
  in
  let band_db = make_db ~qoh_nulls:false in
  List.iter
    (fun sql ->
      match Core.explain_query ~analyze:true band_db sql with
      | Error e -> Alcotest.fail e
      | Ok text ->
          let passes =
            match
              Str.search_forward
                (Str.regexp "io=[0-9/]+ passes=\\([0-9]+\\))")
                text 0
            with
            | _ -> int_of_string (Str.matched_group 1 text)
            | exception Not_found -> 0
          in
          Alcotest.(check bool)
            (sql ^ ": a band aggregate reads its inner per chunk")
            true (passes > 1))
    band_queries;
  let joins = Optimizer.Planner.[ Auto; Force_nl; Force_merge; Force_hash ] in
  let strategies =
    (Core.Nested_iteration :: Core.Auto
     :: List.map (fun j -> Core.Transformed j) joins)
    @ List.map (fun j -> Core.Batched j) joins
  in
  let ran = ref 0 in
  List.iter
    (fun (db, queries) ->
      let pager = Core.Catalog.pager (Core.catalog db) in
      List.iter
        (fun sql ->
          List.iter
            (fun strategy ->
              List.iter
                (fun mode ->
                  List.iter
                    (fun engine ->
                      let before = Core.Pager.stored_pages pager in
                      (match Core.run ~strategy ~mode ~engine db sql with
                      | Ok _ -> incr ran
                      | Error _ -> ());
                      Alcotest.(check int)
                        (Printf.sprintf "%s / %s / %s: stored pages" sql
                           (Core.strategy_name strategy)
                           (Exec.Plan.engine_name engine))
                        before
                        (Core.Pager.stored_pages pager))
                    Exec.Plan.[ Tuple; Vectorized ])
                Optimizer.Planner.[ Paper1987; Hybrid ])
            strategies)
        queries)
    [ (make_db ~qoh_nulls:true, queries); (band_db, band_queries) ];
  Alcotest.(check bool) "most cells ran" true (!ran > 100)

(* Exact page counters of the two band-aggregate statements (the §5.3 Q5
   with a non-equality correlation, and the §8 ALL rewrite's counting
   temp) on a fixed seeded PARTS/SUPPLY database whose filtered SUPPLY
   (~150 pages) outgrows the 16-page pool.  Under Auto each reads its
   inner once, with no sort anywhere in the pipeline; under Force_nl the
   nested-loop join re-reads the inner per outer key, and its counts are
   those this plan has always had. *)
let band_gate_db () =
  let rng = Random.State.make [| 16 |] in
  let db = Core.create_db ~buffer_pages:16 ~page_bytes:256 () in
  let define rel =
    Core.define_table db
      (Core.Schema.column (Relation.schema rel) 0).Core.Schema.rel
      (List.map
         (fun (c : Core.Schema.column) -> (c.name, c.ty))
         (Core.Schema.columns (Relation.schema rel)))
      (List.map Relalg.Row.to_list (Relation.rows rel))
  in
  define (Workload.Gen.parts rng ~n:60 ~key_range:400);
  define (Workload.Gen.supply rng ~n:3000 ~key_range:300);
  db

let band_q5 =
  "SELECT PNUM FROM PARTS WHERE PNUM <= 150 AND QOH = (SELECT MAX(QUAN) FROM \
   SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < '1-1-80')"

let band_all =
  "SELECT PNUM FROM PARTS WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE \
   SUPPLY.PNUM = PARTS.PNUM)"

let test_band_gate () =
  let counters strategy sql =
    match Core.run ~strategy (band_gate_db ()) sql with
    | Error e -> Alcotest.fail e
    | Ok e ->
        let io = e.Core.io in
        Core.Pager.(io.logical_reads, io.physical_reads, io.physical_writes)
  in
  let pin label strategy sql expected =
    Alcotest.(check (triple int int int)) label expected (counters strategy sql)
  in
  pin "Q5 auto" Core.Auto band_q5 (360, 308, 6);
  pin "ALL auto" Core.Auto band_all (638, 500, 212);
  let nl = Core.Transformed Optimizer.Planner.Force_nl in
  pin "Q5 force_nl" nl band_q5 (3810, 3759, 156);
  pin "ALL force_nl" nl band_all (11730, 11592, 212);
  List.iter
    (fun sql ->
      match Core.explain_query ~analyze:true (band_gate_db ()) sql with
      | Error e -> Alcotest.fail e
      | Ok text ->
          let found re =
            match Str.search_forward (Str.regexp re) text 0 with
            | _ -> true
            | exception Not_found -> false
          in
          Alcotest.(check bool) (sql ^ ": band aggregate") true
            (found "BandAgg");
          Alcotest.(check bool) (sql ^ ": no sort") false (found "Sort by");
          Alcotest.(check bool) (sql ^ ": one read of the inner") true
            (found "passes=1)  (actual: .* passes=1)"))
    [ band_q5; band_all ]

let suites =
  [
    ( "core.facade",
      [
        Alcotest.test_case "define/table" `Quick test_define_and_table;
        Alcotest.test_case "parse/classify" `Quick test_parse_and_classify;
        Alcotest.test_case "strategies agree" `Quick test_run_strategies_agree;
        Alcotest.test_case "auto falls back" `Quick test_auto_falls_back;
        Alcotest.test_case "compare" `Quick test_compare_strategies;
        Alcotest.test_case "explain" `Quick test_explain_output;
        Alcotest.test_case "io accounting" `Quick test_io_accounting_isolated;
        Alcotest.test_case "explain indexed pick" `Quick
          test_explain_indexed_pick;
        QCheck_alcotest.to_alcotest test_explain_names_run_rung;
        QCheck_alcotest.to_alcotest test_core_adds_no_io;
        Alcotest.test_case "runs free their heaps" `Quick
          test_runs_free_their_heaps;
        Alcotest.test_case "band aggregate: exact page counters" `Quick
          test_band_gate;
      ] );
  ]
