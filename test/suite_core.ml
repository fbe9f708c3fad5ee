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
      ] );
  ]
