(* The semantic checker: diagnostics rendering and ordering, and the
   bounded counterexample search (Equiv_check certifies every guarded
   rewrite and refutes Kim's buggy NEST-JA on Q2 with a replayable one-row
   witness). *)

module Ast = Sql.Ast
module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module D = Analysis.Diagnostics
module EQ = Analysis.Equiv_check
module F = Workload.Fixtures

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags

let check_codes msg expected diags =
  Alcotest.(check (list string)) msg expected (codes diags)

let col ?table column = { Ast.table; column }

let span line col =
  {
    Ast.sp_start = { Ast.line; col };
    sp_end = { Ast.line; col = col + 1 };
  }

(* --- diagnostics: versioned JSON envelope and ordering ----------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_json_report_envelope () =
  let diags =
    [
      D.make "NQ900" (span 2 1) "unknown column X";
      D.make "NQ121" (span 1 1) "verified up to 2 rows";
    ]
  in
  let json = Relalg.Json.to_string (D.json_report diags) in
  Alcotest.(check bool)
    "version field" true
    (contains ~needle:(Printf.sprintf {|"version":%d|} D.json_version) json);
  Alcotest.(check bool)
    "errors field" true
    (contains ~needle:{|"errors":true|} json);
  (* the diagnostics array is sorted: NQ121 at 1:1 before NQ900 at 2:1 *)
  Alcotest.(check bool)
    "sorted payload" true
    (contains
       ~needle:
         {|"diagnostics":[{"code":"NQ121"|}
       json);
  Alcotest.(check bool)
    "empty list has no errors" true
    (contains ~needle:{|"errors":false|}
       (Relalg.Json.to_string (D.json_report [])))

let test_diagnostic_sort_order () =
  let d1 = D.make "NQ901" (span 3 1) "later position" in
  let d2 = D.make "NQ121" (span 1 5) "info first position" in
  let d3 = D.make "NQ900" (span 1 5) "error same position" in
  check_codes "position, then severity, then code"
    [ "NQ900"; "NQ121"; "NQ901" ]
    (D.sort [ d1; d2; d3 ])

let test_analyze_all_sorted () =
  (* Two resolution failures; WHERE is traversed before SELECT internally,
     but diagnostics must come back in source order. *)
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q =
    match Sql.Parser.parse "SELECT NOPE1 FROM PARTS WHERE NOPE2 = 1" with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  let _, diags = Sql.Analyzer.analyze_all ~lookup:(Catalog.lookup catalog) q in
  Alcotest.(check int) "two diagnostics" 2 (List.length diags);
  let positions =
    List.map
      (fun (d : Sql.Analyzer.diag) ->
        (d.Sql.Analyzer.dspan.Ast.sp_start.Ast.line,
         d.Sql.Analyzer.dspan.Ast.sp_start.Ast.col))
      diags
  in
  Alcotest.(check bool)
    "nondecreasing source positions" true
    (List.sort compare positions = positions)

let count_bug_catalog () = F.parts_supply_catalog F.Count_bug

(* --- bounded counterexample search ------------------------------------- *)

(* The acceptance case: Kim's unguarded NEST-JA on Q2 must be refuted at
   bound 2 with a minimal witness the oracle replays. *)
let test_equiv_refutes_buggy_nest_ja () =
  let catalog = count_bug_catalog () in
  let q = F.parse_analyzed catalog F.query_q2 in
  let pred =
    match q.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape"
  in
  let temp, rewritten = Optimizer.Nest_ja.transform q pred ~temp_name:"TEMPP" in
  let temps = [ (temp.Optimizer.Program.name, temp.Optimizer.Program.def) ] in
  match
    EQ.check ~lookup:(Catalog.lookup catalog) ~temps ~main:rewritten q
  with
  | EQ.Equivalent _ -> Alcotest.fail "buggy NEST-JA certified equivalent"
  | EQ.Inconclusive why -> Alcotest.fail ("inconclusive: " ^ why)
  | EQ.Not_equivalent w ->
      (* Minimal witness: one PARTS row with QOH = 0, SUPPLY empty. *)
      let total =
        List.fold_left
          (fun n (_, rel) -> n + List.length (Relation.rows rel))
          0 w.EQ.w_tables
      in
      Alcotest.(check int) "one-row witness" 1 total;
      Alcotest.(check int) "original returns the lost tuple" 1
        (List.length (Relation.rows w.EQ.w_expected));
      Alcotest.(check int) "buggy rewrite loses it" 0
        (List.length (Relation.rows w.EQ.w_got));
      (* The rendered repro replays through the oracle reference and
         reproduces the expected side. *)
      let repro = EQ.witness_to_repro ~original:q w in
      let case = Oracle.Repro.of_string repro in
      (match Oracle.Matrix.run_reference case with
      | Error msg -> Alcotest.fail ("oracle replay rejected witness: " ^ msg)
      | Ok reference ->
          Alcotest.(check bool)
            "replay reproduces the witness expectation" true
            (Relation.equal_bag reference w.EQ.w_expected))

let test_equiv_certifies_guarded_q2 () =
  let db = Fixtures.count_bug_db () in
  match Core.parse db Fixtures.count_bug_query with
  | Error msg -> Alcotest.fail msg
  | Ok q -> (
      let r = Core.check_query db q in
      Alcotest.(check bool) "no refusal" true (r.Core.ck_refused = None);
      Alcotest.(check bool) "no error diagnostics" false
        (D.has_errors r.Core.ck_diags);
      Alcotest.(check bool) "certificate present" true
        (r.Core.ck_certificate <> None);
      match r.Core.ck_verdict with
      | Some (EQ.Equivalent { bound = 2; databases = 3025 }) -> ()
      | Some (EQ.Equivalent { bound; databases }) ->
          Alcotest.fail
            (Printf.sprintf "unexpected certificate: bound %d, %d databases"
               bound databases)
      | _ -> Alcotest.fail "guarded NEST-JA2 rewrite was not certified")

let test_equiv_certifies_neq_guard () =
  (* The §5.3 shape: guarded rewrite joins the temp under the original
     range operator; the search must agree at bound 2. *)
  let db = Fixtures.count_bug_db () in
  match Core.parse db Fixtures.max_quan_query with
  | Error msg -> Alcotest.fail msg
  | Ok q -> (
      let r = Core.check_query db q in
      match r.Core.ck_verdict with
      | Some (EQ.Equivalent _) -> ()
      | Some (EQ.Not_equivalent _) ->
          Alcotest.fail "guarded rewrite refuted"
      | Some (EQ.Inconclusive why) -> Alcotest.fail ("inconclusive: " ^ why)
      | None -> Alcotest.fail "no verdict")

let test_check_query_refusal () =
  let db = Fixtures.count_bug_db () in
  match
    Core.parse db
      "SELECT PNUM FROM PARTS WHERE PNUM NOT IN (SELECT PNUM FROM SUPPLY)"
  with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      let r = Core.check_query db q in
      Alcotest.(check bool) "refused" true (r.Core.ck_refused <> None);
      Alcotest.(check bool) "no verdict on refusal" true
        (r.Core.ck_verdict = None)

let test_check_source_reports () =
  let db = Fixtures.count_bug_db () in
  match
    Core.check_source db
      (Fixtures.count_bug_query ^ "; SELECT PNUM FROM PARTS WHERE QOH < 10")
  with
  | Error msg -> Alcotest.fail msg
  | Ok reports ->
      Alcotest.(check int) "one report per query" 2 (List.length reports);
      List.iter
        (fun (r : Core.check_report) ->
          Alcotest.(check bool) "certified" true
            (match r.Core.ck_verdict with
            | Some (EQ.Equivalent _) -> true
            | _ -> false))
        reports

let suites =
  [
    ( "analysis-checker",
      [
        Alcotest.test_case "json report envelope" `Quick
          test_json_report_envelope;
        Alcotest.test_case "diagnostic sort order" `Quick
          test_diagnostic_sort_order;
        Alcotest.test_case "analyze_all sorted" `Quick test_analyze_all_sorted;
        Alcotest.test_case "equiv: refutes buggy NEST-JA on Q2" `Quick
          test_equiv_refutes_buggy_nest_ja;
        Alcotest.test_case "equiv: certifies guarded Q2" `Quick
          test_equiv_certifies_guarded_q2;
        Alcotest.test_case "equiv: certifies range guard" `Quick
          test_equiv_certifies_neq_guard;
        Alcotest.test_case "check_query: refusal" `Quick
          test_check_query_refusal;
        Alcotest.test_case "check_source: report per query" `Quick
          test_check_source_reports;
      ] );
  ]
