(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index E1-E8), prints paper-vs-ours
   tables, and runs bechamel micro-benchmarks of the two strategies.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig1    # one section
   Sections: fig1 sec74 bugs figure2 sweep ext timing *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Pager = Storage.Pager
module Json = Relalg.Json
module F = Workload.Fixtures
module G = Workload.Gen
open Optimizer

(* ---------------- small table printer --------------------------------- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=');
  let line row = String.concat "  " (List.map2 pad row widths) in
  Fmt.pr "%s@.%s@." (line header)
    (line (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Fmt.pr "%s@." (line row)) rows

let f0 x = Printf.sprintf "%.0f" x
let f1 x = Printf.sprintf "%.1f" x

let ints rel name =
  List.filter_map
    (function Value.Int i -> Some i | _ -> None)
    (Relation.column_values rel name)
  |> List.sort compare

let show_ints rel name =
  "{" ^ String.concat ", " (List.map string_of_int (ints rel name)) ^ "}"

(* ---------------- E1: Figure 1 ---------------------------------------- *)

(* Figure 1 summarizes three of Kim's worked examples.  The type-JA row's
   parameters are given in the paper's section 7.4 (Pi=50, Pj=30, f.Ni=100);
   the type-N and type-J parameters are reconstructed from the printed
   costs (EXPERIMENTS.md records the derivations).  Kim's arithmetic uses
   ceilinged log_(B-1) terms. *)
let fig1 () =
  let r = Cost.Ceil in
  let n_nested = Cost.nested_iteration ~pi:20. ~pj:100. ~fi_ni:102. in
  let n_merge =
    Cost.nest_nj_merge ~rounding:r ~sort_outer:false ~b:6 ~pi:20. ~pj:100. ()
  in
  let j_nested = Cost.nested_iteration ~pi:25. ~pj:75. ~fi_ni:135. in
  let j_merge =
    Cost.nest_nj_merge ~rounding:r ~sort_outer:false ~b:6 ~pi:25. ~pj:75. ()
  in
  let ja_nested = Cost.nested_iteration ~pi:50. ~pj:30. ~fi_ni:100. in
  let ja_kim = Cost.kim_nest_ja ~rounding:r ~b:6 ~pi:50. ~pj:30. ~pt:5. () in
  print_table
    ~title:
      "E1 / Figure 1: page I/Os, nested iteration vs transformation + merge \
       join"
    ~header:
      [ "query"; "paper nested"; "model nested"; "paper transf.";
        "model transf."; "savings" ]
    [
      [ "type-N"; "10220"; f0 n_nested; "720"; f0 n_merge;
        Printf.sprintf "%.0f%%" (100. *. (1. -. (n_merge /. n_nested))) ];
      [ "type-J"; "10120"; f0 j_nested; "550"; f0 j_merge;
        Printf.sprintf "%.0f%%" (100. *. (1. -. (j_merge /. j_nested))) ];
      [ "type-JA"; "3050"; f0 ja_nested; "615"; f0 ja_kim;
        Printf.sprintf "%.0f%%" (100. *. (1. -. (ja_kim /. ja_nested))) ];
    ];
  Fmt.pr
    "(type-N/J parameters reconstructed from the printed costs; type-JA \
     parameters from sec. 7.4.@.The type-J nested and type-JA transformed \
     cells differ from the paper by 0.3%% / 7%% --@.Kim's full example \
     parameters are in [KIM 82], not reprinted in this paper.  See \
     EXPERIMENTS.md.)@."

(* ---------------- E2: the 7.4 worked example --------------------------- *)

let sec74 () =
  let p =
    {
      Cost.pi = 50.; pj = 30.; pt2 = 7.; pt3 = 10.; pt4 = 8.; pt = 5.;
      b = 6; fi_ni = 100.; nt2 = 100.;
    }
  in
  let nested = Cost.nested_iteration ~pi:p.pi ~pj:p.pj ~fi_ni:p.fi_ni in
  let rows =
    List.map
      (fun s ->
        [ s.Cost.temp_method; s.Cost.final_method; f1 s.Cost.cost;
          Printf.sprintf "%.0f%%" (100. *. (1. -. (s.Cost.cost /. nested))) ])
      (Cost.ja2_strategies p)
  in
  print_table
    ~title:
      "E2 / sec. 7.4: NEST-JA2 strategy costs (Pi=50 Pj=30 Pt2=7 Pt3=10 \
       Pt4=8 Pt=5 B=6 f.Ni=100)"
    ~header:[ "temp join"; "final join"; "page I/Os"; "savings vs nested" ]
    (rows
    @ [
        [ "(nested iteration)"; "-"; f0 nested; "-" ];
        [ "(paper: two merge joins)"; "-"; "about 475"; "-" ];
      ]);
  Fmt.pr "closed-form all-merge total: %.1f (paper prints \"about 475\")@."
    (Cost.ja2_total_merge p)

(* ---------------- E3-E5: the bug tables -------------------------------- *)

let fresh_counter prefix =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s%d" prefix !n

let run_kim_ja catalog q =
  let pred = List.hd q.Sql.Ast.where in
  let temp, rewritten = Nest_ja.transform q pred ~temp_name:"KIMTEMP" in
  Planner.materialize_temp catalog temp;
  let result =
    Exec.Plan.run catalog (Planner.lower catalog rewritten).Planner.plan
  in
  Catalog.drop catalog "KIMTEMP";
  result

let run_ja2 catalog q =
  let pred = List.hd q.Sql.Ast.where in
  let { Nest_ja2.temps; rewritten } =
    Nest_ja2.transform q pred ~fresh:(fresh_counter "JA2T") ()
  in
  List.iter (Planner.materialize_temp catalog) temps;
  let result =
    Exec.Plan.run catalog (Planner.lower catalog rewritten).Planner.plan
  in
  List.iter (fun { Program.name; _ } -> Catalog.drop catalog name) temps;
  result

let bugs () =
  let scenario variant query =
    let catalog = F.parts_supply_catalog variant in
    let q = F.parse_analyzed catalog query in
    let reference = Exec.Nested_iter.run catalog q in
    let kim = run_kim_ja catalog q in
    let ja2 = run_ja2 catalog q in
    ( show_ints reference "PNUM",
      show_ints kim "PNUM",
      show_ints ja2 "PNUM",
      Relation.equal_set reference kim,
      Relation.equal_bag reference ja2 )
  in
  let row name variant query =
    let reference, kim, ja2, kim_ok, ja2_ok = scenario variant query in
    [ name; reference;
      kim ^ (if kim_ok then "" else " (WRONG)");
      ja2 ^ (if ja2_ok then " (ok)" else " (WRONG)") ]
  in
  print_table
    ~title:
      "E3-E5 / sec. 5: Kim's NEST-JA bugs vs NEST-JA2 (results of PNUM \
       queries)"
    ~header:[ "scenario"; "nested iteration"; "Kim NEST-JA"; "NEST-JA2" ]
    [
      row "E3 COUNT bug (Q2)" F.Count_bug F.query_q2;
      row "E4 non-equality (Q5)" F.Neq_bug F.query_q5;
      row "E5 duplicates (Q2)" F.Duplicates F.query_q2;
      row "COUNT(*) variant" F.Count_bug F.query_q2_count_star;
    ];
  (* The paper reports its outer-join solution "has been tested successfully
     on queries with more than a single level of nesting, including
     Kiessling's query Q3": a Q3-style two-level COUNT query, all three
     datasets. *)
  let q3_style =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY      WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80' AND QUAN =      (SELECT MAX(QUAN) FROM SUPPLY X WHERE X.PNUM = SUPPLY.PNUM))"
  in
  let rows =
    List.map
      (fun (label, variant) ->
        let catalog = F.parts_supply_catalog variant in
        let q = F.parse_analyzed catalog q3_style in
        let reference = Exec.Nested_iter.run catalog q in
        let program =
          Nest_g.transform
            ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
            q
        in
        let got = Planner.run_program catalog program in
        [ label; show_ints reference "PNUM"; show_ints got "PNUM";
          string_of_bool (Relation.equal_bag reference got) ])
      [ ("kiessling data", F.Count_bug); ("sec. 5.3 data", F.Neq_bug);
        ("duplicates data", F.Duplicates) ]
  in
  print_table
    ~title:
      "Multi-level COUNT (Q3-style, two NEST-JA2 applications): NEST-G vs nested iteration"
    ~header:[ "dataset"; "nested iteration"; "transformed"; "agree" ] rows

(* ---------------- E6: Figure 2 ----------------------------------------- *)

let figure2 () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let text =
    "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY WHERE \
     SUPPLY.QUAN IN (SELECT QUAN FROM SUPPLY C WHERE C.SHIPDATE IN (SELECT \
     SHIPDATE FROM SUPPLY E WHERE E.PNUM = PARTS.PNUM)))"
  in
  let q = F.parse_analyzed catalog text in
  let program =
    Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
  in
  let reference = Exec.Nested_iter.run catalog q in
  let result = Planner.run_program catalog program in
  Planner.drop_temps catalog program;
  print_table ~title:"E6 / Figure 2: recursive NEST-G on a 4-block query tree"
    ~header:[ "metric"; "value" ]
    [
      [ "nesting depth"; string_of_int (Sql.Ast.nesting_depth q) ];
      [ "temp tables created";
        string_of_int (List.length program.Program.temps) ];
      [ "canonical"; string_of_bool (Program.is_fully_canonical program) ];
      [ "nested iteration result"; show_ints reference "PNUM" ];
      [ "transformed result"; show_ints result "PNUM" ];
      [ "agree"; string_of_bool (Relation.equal_set reference result) ];
    ]

(* ---------------- E7: measured page-I/O sweeps -------------------------- *)

let sweep_queries =
  [
    ( "type-N",
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
       QUAN >= 3)" );
    ( "type-J",
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)" );
    ( "type-JA",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')" );
  ]

let measure_io catalog run =
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  let result = run () in
  (result, Pager.total_io (Pager.diff_since pager before))

let sweep () =
  List.iter
    (fun (kind, text) ->
      let rows =
        List.map
          (fun supply_per_part ->
            let fresh_catalog () =
              G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42
                ~n_parts:40 ~supply_per_part ()
            in
            let c1 = fresh_catalog () in
            let q1 = F.parse_analyzed c1 text in
            let reference, nested_io =
              measure_io c1 (fun () -> Exec.Sysr_iteration.run c1 q1)
            in
            let c2 = fresh_catalog () in
            let q2 = F.parse_analyzed c2 text in
            let transformed, trans_io =
              measure_io c2 (fun () ->
                  let program =
                    Nest_g.transform
                      ~fresh:(fun () -> Catalog.fresh_temp_name c2)
                      q2
                  in
                  Planner.run_program c2 program)
            in
            let agree = Relation.equal_set reference transformed in
            let supply_pages = Catalog.pages c2 "SUPPLY" in
            [
              string_of_int supply_per_part;
              string_of_int supply_pages;
              string_of_int nested_io;
              string_of_int trans_io;
              Printf.sprintf "%.0f%%"
                (100.
                *. (1. -. (float_of_int trans_io /. float_of_int nested_io)));
              string_of_bool agree;
            ])
          [ 2; 4; 8; 16; 32 ]
      in
      print_table
        ~title:
          (Printf.sprintf
             "E7 / measured page I/O sweep (%s; 40 parts, B=8 pages of 128B)"
             kind)
        ~header:
          [ "supply/part"; "SUPPLY pages"; "nested I/O"; "transformed I/O";
            "savings"; "agree" ]
        rows)
    sweep_queries

(* ---------------- E8: the extensions ----------------------------------- *)

let ext () =
  let cases =
    [
      ("EXISTS",
       "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = \
        S.SNO)");
      ("NOT EXISTS",
       "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE \
        SP.SNO = S.SNO)");
      ("< ANY", "SELECT PNO FROM P WHERE WEIGHT < ANY (SELECT QTY FROM SP)");
      (">= ALL",
       "SELECT PNO FROM P WHERE WEIGHT >= ALL (SELECT WEIGHT FROM P)");
      ("= ANY", "SELECT SNO FROM S WHERE SNO = ANY (SELECT SNO FROM SP)");
      ("> ANY correlated",
       "SELECT PNO FROM P WHERE WEIGHT > ANY (SELECT WEIGHT FROM P X WHERE \
        X.CITY = P.CITY)");
    ]
  in
  let rows =
    List.map
      (fun (name, text) ->
        let c1 = F.kim_catalog () in
        let q = F.parse_analyzed c1 text in
        let reference, nested_io =
          measure_io c1 (fun () -> Exec.Sysr_iteration.run c1 q)
        in
        let c2 = F.kim_catalog () in
        let q2 = F.parse_analyzed c2 text in
        let transformed, trans_io =
          measure_io c2 (fun () ->
              let program =
                Nest_g.transform
                  ~fresh:(fun () -> Catalog.fresh_temp_name c2)
                  q2
              in
              Planner.run_program c2 program)
        in
        [
          name;
          string_of_int (Relation.cardinality reference);
          string_of_bool (Relation.equal_set reference transformed);
          string_of_int nested_io;
          string_of_int trans_io;
        ])
      cases
  in
  print_table
    ~title:"E8 / sec. 8 extensions: EXISTS / NOT EXISTS / ANY / ALL"
    ~header:[ "predicate"; "rows"; "agree"; "nested I/O"; "transformed I/O" ]
    rows

(* ---------------- ablations -------------------------------------------- *)

(* Measured counterpart of E2: the same transformed JA program executed
   with forced join methods.  The cost model's ordering (merge beats nested
   loops once relations outgrow the pool) should reproduce in measured
   page I/O. *)
let strategies () =
  let text = List.assoc "type-JA" sweep_queries in
  let rows =
    List.map
      (fun (label, force) ->
        let catalog =
          G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42
            ~n_parts:40 ~supply_per_part:16 ()
        in
        let q = F.parse_analyzed catalog text in
        let program =
          Nest_g.transform
            ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
            q
        in
        let result, io =
          measure_io catalog (fun () -> Planner.run_program ~force catalog program)
        in
        [ label; string_of_int io; string_of_int (Relation.cardinality result) ])
      [
        ("forced nested-loop", Planner.Force_nl);
        ("forced sort-merge", Planner.Force_merge);
        ("forced hash (beyond the paper)", Planner.Force_hash);
        ("cost-based (auto, 1987 methods)", Planner.Auto);
      ]
  in
  print_table
    ~title:
      "Ablation / join methods: measured I/O of the transformed JA pipeline (40 parts x 16, B=8)"
    ~header:[ "join method"; "total page I/O"; "rows" ] rows

(* Buffer-size sensitivity: nested iteration collapses to cheap once the
   inner relation fits in the pool; the transformation's sort costs shrink
   with B too, but gently. *)
let buffers () =
  let text = List.assoc "type-JA" sweep_queries in
  let rows =
    List.map
      (fun b ->
        let run strategy =
          let catalog =
            G.scaled_catalog ~buffer_pages:b ~page_bytes:128 ~seed:42
              ~n_parts:40 ~supply_per_part:8 ()
          in
          let q = F.parse_analyzed catalog text in
          match strategy with
          | `Nested ->
              snd (measure_io catalog (fun () -> Exec.Sysr_iteration.run catalog q))
          | `Transformed ->
              snd
                (measure_io catalog (fun () ->
                     let program =
                       Nest_g.transform
                         ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
                         q
                     in
                     Planner.run_program catalog program))
        in
        let nested = run `Nested and transformed = run `Transformed in
        let savings =
          if nested = 0 then "n/a (all cached)"
          else
            Printf.sprintf "%.0f%%"
              (100.
              *. (1. -. (float_of_int transformed /. float_of_int nested)))
        in
        [ string_of_int b; string_of_int nested; string_of_int transformed;
          savings ])
      [ 4; 8; 16; 32; 64; 128 ]
  in
  print_table
    ~title:
      "Ablation / buffer size B: type-JA, 40 parts x 8 supply (SUPPLY = 64 pages)"
    ~header:[ "B (pages)"; "nested I/O"; "transformed I/O"; "savings" ] rows

(* Index access path: with a dense index on SUPPLY.PNUM, the planner can
   probe instead of scanning or sorting — the "indices on the join columns"
   of §5.2.  Compare the transformed JA pipeline across access paths. *)
let indexes () =
  List.iter
    (fun kind ->
      let text = List.assoc kind sweep_queries in
      let rows =
        List.map
          (fun (label, with_index, force) ->
            let catalog =
              G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42
                ~n_parts:10 ~supply_per_part:64 ()
            in
            if with_index then
              Catalog.create_index catalog "SUPPLY" ~column:"PNUM";
            let q = F.parse_analyzed catalog text in
            let program =
              Nest_g.transform
                ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
                q
            in
            let result, io =
              measure_io catalog (fun () ->
                  Planner.run_program ~force catalog program)
            in
            [ label; string_of_int io;
              string_of_int (Relation.cardinality result) ])
          [
            ("no index, cost-based", false, Planner.Auto);
            ("index on SUPPLY.PNUM, cost-based", true, Planner.Auto);
            ("index available, forced merge", true, Planner.Force_merge);
          ]
      in
      print_table
        ~title:
          (Printf.sprintf
             "Ablation / index access path: transformed %s pipeline (10 parts x 64 supply, B=8)"
             kind)
        ~header:[ "configuration"; "total page I/O"; "rows" ] rows)
    [ "type-N"; "type-J" ]

(* The outer projection of NEST-JA2 step 1 (DISTINCT): dropping it is
   cheaper on temps but wrong on duplicate data — the two halves of the
   paper's sec. 5.4 argument. *)
let projection () =
  let rows =
    List.map
      (fun (label, project_outer) ->
        let catalog = F.parts_supply_catalog F.Duplicates in
        let q = F.parse_analyzed catalog F.query_q2 in
        let pred = List.hd q.Sql.Ast.where in
        let { Nest_ja2.temps; rewritten } =
          Nest_ja2.transform q pred
            ~fresh:(fresh_counter "PT")
            ~project_outer ()
        in
        let result, io =
          measure_io catalog (fun () ->
              List.iter (Planner.materialize_temp catalog) temps;
              Exec.Plan.run catalog (Planner.lower catalog rewritten).Planner.plan)
        in
        let reference = Exec.Nested_iter.run catalog q in
        [
          label;
          show_ints result "PNUM";
          string_of_bool (Relation.equal_set reference result);
          string_of_int io;
        ])
      [ ("with DISTINCT projection (NEST-JA2)", true);
        ("without projection (sec. 5.4 variant)", false) ]
  in
  print_table
    ~title:
      "Ablation / outer projection (sec. 5.4, duplicates instance; ground truth {3, 8, 10})"
    ~header:[ "variant"; "result"; "correct"; "page I/O" ] rows

(* Model validation: feed the paper's §7.4 closed form with the *actual*
   page counts of a run (Pi, Pj from the catalog; Pt2, Pt3, Pt from the
   materialized temps; Rt4 proxied by Pt2+Pt3 since our pipeline streams the
   pre-GROUP-BY join result instead of materializing it), and compare with
   the measured all-merge I/O.  The paper never validated its formulas
   against an implementation; this section does. *)
let model () =
  let text = List.assoc "type-JA" sweep_queries in
  let rows =
    List.map
      (fun (n_parts, supply_per_part) ->
        let catalog =
          G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42 ~n_parts
            ~supply_per_part ()
        in
        let q = F.parse_analyzed catalog text in
        let program =
          Nest_g.transform
            ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
            q
        in
        let _, measured =
          measure_io catalog (fun () ->
              Planner.run_program ~force:Planner.Force_merge catalog program)
        in
        (* page counts after the run; temps still registered *)
        let pages name = float_of_int (Catalog.pages catalog name) in
        let temp_pages =
          List.map (fun { Program.name; _ } -> pages name) program.Program.temps
        in
        let pt2, pt3, pt =
          match temp_pages with
          | [ a; b; c ] -> (a, b, c)
          | [ a; c ] -> (a, 0., c)
          | _ -> (1., 1., 1.)
        in
        let p =
          {
            Cost.pi = pages "PARTS"; pj = pages "SUPPLY"; pt2; pt3;
            pt4 = pt2 +. pt3; pt;
            b = Pager.buffer_pages (Catalog.pager catalog);
            fi_ni = float_of_int (Catalog.tuples catalog "PARTS");
            nt2 = float_of_int (Catalog.tuples catalog "PARTS");
          }
        in
        let predicted = Cost.ja2_total_merge ~rounding:Cost.Ceil p in
        let nested_pred = Cost.nested_iteration ~pi:p.pi ~pj:p.pj ~fi_ni:p.fi_ni in
        Planner.drop_temps catalog program;
        [
          Printf.sprintf "%dx%d" n_parts supply_per_part;
          f0 p.pi; f0 p.pj;
          f0 predicted;
          string_of_int measured;
          Printf.sprintf "%.2f" (float_of_int measured /. predicted);
          f0 nested_pred;
        ])
      [ (20, 4); (40, 8); (40, 16); (80, 16); (80, 32) ]
  in
  print_table
    ~title:
      "Model validation: sec. 7.4 closed form vs measured all-merge pipeline"
    ~header:
      [ "workload"; "Pi"; "Pj"; "model I/O"; "measured I/O"; "meas/model";
        "model nested" ]
    rows;
  Fmt.pr
    "(agreement within a few percent; residuals come from partial pages, LRU interference@.between concurrent scans, and the streamed pre-GROUP-BY join result.)@."

(* ---------------- engine comparison ------------------------------------ *)

(* Per-operator EXPLAIN ANALYZE of the hybrid pipeline under both engines
   at the 10k-supply-row scale — where the vectorized wins (and any
   regressions) actually live.  The "vec" section of the CLI. *)
let vec () =
  List.iter
    (fun (kind, text) ->
      List.iter
        (fun engine ->
          let catalog =
            G.scaled_catalog ~buffer_pages:1024 ~page_bytes:256 ~seed:42
              ~n_parts:100 ~supply_per_part:100 ()
          in
          let q = F.parse_analyzed catalog text in
          let program =
            Nest_g.transform
              ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
              q
          in
          let t0 = Unix.gettimeofday () in
          let text =
            Planner.explain_text ~mode:Planner.Hybrid ~analyze:true ~engine
              catalog program
          in
          let wall = Unix.gettimeofday () -. t0 in
          Fmt.pr "@.=== %s / %s engine (%.2fms incl. instrumentation) ===@.%s@."
            kind
            (Exec.Plan.engine_name engine)
            (wall *. 1e3) text)
        [ Exec.Plan.Tuple; Exec.Plan.Vectorized ])
    sweep_queries

(* ---------------- bechamel timings ------------------------------------- *)

let timing () =
  let open Bechamel in
  let open Toolkit in
  let make_catalog () =
    G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:7 ~n_parts:30
      ~supply_per_part:8 ()
  in
  let bench_pair kind text =
    let c_nested = make_catalog () in
    let q_nested = F.parse_analyzed c_nested text in
    let nested =
      Test.make ~name:(kind ^ " nested-iteration")
        (Staged.stage (fun () ->
             ignore (Exec.Sysr_iteration.run c_nested q_nested)))
    in
    let c_trans = make_catalog () in
    let q_trans = F.parse_analyzed c_trans text in
    let program =
      Nest_g.transform
        ~fresh:(fun () -> Catalog.fresh_temp_name c_trans)
        q_trans
    in
    let transformed =
      Test.make ~name:(kind ^ " transformed")
        (Staged.stage (fun () ->
             let r = Planner.run_program c_trans program in
             Planner.drop_temps c_trans program;
             ignore r))
    in
    let transform_only =
      Test.make ~name:(kind ^ " transform (rewrite only)")
        (Staged.stage (fun () ->
             let n = ref 0 in
             let fresh () =
               incr n;
               Printf.sprintf "T%d" !n
             in
             ignore (Nest_g.transform ~fresh q_trans)))
    in
    [ nested; transformed; transform_only ]
  in
  let tests =
    List.concat_map (fun (kind, text) -> bench_pair kind text) sweep_queries
  in
  let test = Test.make_grouped ~name:"nestopt" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort compare !rows
    |> List.map (fun (name, ns) ->
           [
             name;
             (if Float.is_nan ns then "n/a"
              else if ns > 1_000_000. then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else Printf.sprintf "%.1f us" (ns /. 1e3));
           ])
  in
  print_table ~title:"Wall-clock (bechamel, monotonic clock, ns/run OLS)"
    ~header:[ "benchmark"; "time/run" ] rows

(* ---------------- BENCH_perf.json -------------------------------------- *)

(* Machine-readable perf harness: wall-clock (Unix.gettimeofday), logical /
   physical page I/O and row counts over a fixed query grid (up to a
   10k-row SUPPLY), comparing nested iteration, the paper-mode pipeline and
   the hybrid-mode pipeline; plus a pager microbench that pins the O(1)
   page-touch claim (cost flat as the pool grows).  Written to
   BENCH_perf.json for regression tracking across commits. *)

let time_io catalog run =
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  (* Quiesce the GC so the catalog build's garbage isn't collected inside
     the timed region — without this, major slices land in random reps and
     the median wobbles by tens of percent. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let result = run () in
  let wall = Unix.gettimeofday () -. t0 in
  (result, wall, Pager.diff_since pager before)

(* Warm-up + median-of-k timing.  Every sample runs on a {e fresh} catalog
   (cold pager, fresh temps — [run_program] registers temps under fixed
   names, so reps must not share state); the parse and the NEST-G rewrite
   happen outside the timed region, so a cell times planning + execution.
   The warm-up rep absorbs allocator and code-path warmup; the median over
   [reps] suppresses scheduler noise that a single-shot number is hostage
   to. *)
type sample = { s_rows : int; s_wall : float; s_io : Pager.stats }

let median_sample samples =
  let sorted =
    List.sort (fun a b -> Float.compare a.s_wall b.s_wall) samples
  in
  List.nth sorted (List.length sorted / 2)

let run_strategy ~warmup ~reps ~buffer_pages ~page_bytes ~n_parts
    ~supply_per_part text strategy =
  let once () =
    let catalog =
      G.scaled_catalog ~buffer_pages ~page_bytes ~seed:42 ~n_parts
        ~supply_per_part ()
    in
    let q = F.parse_analyzed catalog text in
    let run =
      match strategy with
      | `Nested -> fun () -> Exec.Sysr_iteration.run catalog q
      | `Transformed (mode, engine) ->
          let program =
            Nest_g.transform
              ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
              q
          in
          fun () -> Planner.run_program ~mode ~engine catalog program
    in
    let result, wall, io = time_io catalog run in
    { s_rows = Relation.cardinality result; s_wall = wall; s_io = io }
  in
  for _ = 1 to warmup do
    ignore (once ())
  done;
  median_sample (List.init reps (fun _ -> once ()))

let strategy_json ~name ~engine { s_rows; s_wall; s_io = io } =
  Json.Obj
    [
      ("name", Str name);
      ("engine", Str engine);
      ("wall_s", Float s_wall);
      ("logical_reads", Int io.Pager.logical_reads);
      ("physical_reads", Int io.Pager.physical_reads);
      ("physical_writes", Int io.Pager.physical_writes);
      ("rows", Int s_rows);
    ]

(* The grid: 100 parts, SUPPLY scaling 500 -> 10000 rows.  Each transformed
   cell runs under both execution engines.  The pool is sized so the hybrid
   planner's hash paths are eligible at every scale; nested iteration is
   skipped at the largest scales where its quadratic page traffic dominates
   the whole run. *)
let json_grid ~scales ~warmup ~reps () =
  let buffer_pages = 1024 and page_bytes = 256 in
  let n_parts = 100 in
  List.concat_map
    (fun (kind, text) ->
      List.map
        (fun supply_per_part ->
          let run s =
            run_strategy ~warmup ~reps ~buffer_pages ~page_bytes ~n_parts
              ~supply_per_part text s
          in
          let supply_rows = n_parts * supply_per_part in
          let nested =
            if supply_rows <= 2500 then Some (run `Nested) else None
          in
          let paper = run (`Transformed (Planner.Paper1987, Exec.Plan.Tuple)) in
          let paper_vec =
            run (`Transformed (Planner.Paper1987, Exec.Plan.Vectorized))
          in
          let hybrid = run (`Transformed (Planner.Hybrid, Exec.Plan.Tuple)) in
          let hybrid_vec =
            run (`Transformed (Planner.Hybrid, Exec.Plan.Vectorized))
          in
          let strategies =
            (match nested with
            | Some r -> [ strategy_json ~name:"nested_iteration" ~engine:"tuple" r ]
            | None -> [])
            @ [
                strategy_json ~name:"transformed_paper1987" ~engine:"tuple" paper;
                strategy_json ~name:"transformed_paper1987" ~engine:"vectorized"
                  paper_vec;
                strategy_json ~name:"transformed_hybrid" ~engine:"tuple" hybrid;
                strategy_json ~name:"transformed_hybrid" ~engine:"vectorized"
                  hybrid_vec;
              ]
          in
          let hybrid_speedup = paper.s_wall /. hybrid.s_wall in
          let vec_speedup = hybrid.s_wall /. hybrid_vec.s_wall in
          ( kind,
            supply_rows,
            hybrid_speedup,
            vec_speedup,
            Json.Obj
              [
                ("query", Str kind);
                ("n_parts", Int n_parts);
                ("supply_rows", Int supply_rows);
                ("buffer_pages", Int buffer_pages);
                ("page_bytes", Int page_bytes);
                ("timing", Obj
                   [ ("warmup", Int warmup); ("reps", Int reps);
                     ("stat", Str "median") ]);
                ("strategies", List strategies);
                ("hybrid_speedup_vs_paper", Float hybrid_speedup);
                ("vectorized_speedup_vs_tuple", Float vec_speedup);
              ] ))
        scales)
    sweep_queries

(* Pager page-touch microbench: a pool-resident file of B pages touched
   uniformly at random.  Every touch is a hit, so the measured cost is pure
   LRU maintenance — it must stay flat as B grows (O(1) hashtable + linked
   list), where a list-based LRU degrades linearly. *)
let json_pager_scaling () =
  let touches = 200_000 in
  let point buffer_pages =
    let pager = Pager.create ~buffer_pages ~page_bytes:64 () in
    let f = Pager.create_file pager in
    for _ = 1 to buffer_pages do
      Pager.append_page pager f [||]
    done;
    let rng = Random.State.make [| 7 |] in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to touches do
      ignore (Pager.read_page pager f (Random.State.int rng buffer_pages))
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (buffer_pages, wall *. 1e9 /. float_of_int touches)
  in
  let points = List.map point [ 16; 128; 1024; 8192 ] in
  let ns = List.map snd points in
  let flatness =
    List.fold_left Float.max 0. ns /. List.fold_left Float.min infinity ns
  in
  ( flatness,
    Json.Obj
      [
        ("touches", Int touches);
        ( "points",
          List
            (List.map
               (fun (b, ns) ->
                 Json.Obj
                   [ ("buffer_pages", Int b); ("ns_per_touch", Float ns) ])
               points) );
        ("flatness_max_over_min", Float flatness);
      ] )

(* Per-operator breakdowns: one instrumented hybrid-mode run per query kind
   {e and per engine} (planner estimates via Optimizer.Estimate, actuals
   from the EXPLAIN ANALYZE observer — per-batch amortized under the
   vectorized engine), at a fixed mid-grid scale.  Each segment's "plan" is
   the Exec.Explain.render_json tree. *)
let json_operator_breakdowns ~supply_per_part () =
  let buffer_pages = 1024 and page_bytes = 256 in
  let n_parts = 100 in
  List.concat_map
    (fun (kind, text) ->
      List.map
        (fun engine ->
          let catalog =
            G.scaled_catalog ~buffer_pages ~page_bytes ~seed:42 ~n_parts
              ~supply_per_part ()
          in
          let q = F.parse_analyzed catalog text in
          let program =
            Nest_g.transform
              ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
              q
          in
          let segs =
            Planner.explain_plans ~mode:Planner.Hybrid ~analyze:true ~engine
              catalog program
          in
          Json.Obj
            [
              ("query", Str kind);
              ("engine", Str (Exec.Plan.engine_name engine));
              ("n_parts", Int n_parts);
              ("supply_rows", Int (n_parts * supply_per_part));
              ( "segments",
                List
                  (List.map
                     (fun (s : Planner.explained) ->
                       Json.Obj
                         [
                           ("label", Str s.Planner.seg_label);
                           ("plan", s.Planner.seg_tree);
                         ])
                     segs) );
            ])
        [ Exec.Plan.Tuple; Exec.Plan.Vectorized ])
    sweep_queries

(* ---------------- batched vs nested vs rewrite -------------------------- *)

(* v4: head-to-head wall-clock of the three strategies on duplicate-skewed
   data — a small key range, so many outer rows share each distinct
   correlation key; exactly the regime batching is built for and the
   opposite of [scaled_catalog]'s unique keys — at 1k and 10k SUPPLY rows.
   The quantified type-JA cell is the headline: this harness calls
   [Nest_g.transform] without catalog NULL knowledge, so the §8 ALL
   rewrite's conservative COUNT-form guard refuses it, leaving batched as
   the only optimizing strategy that answers.  The harness asserts batched
   beats nested iteration on that refused cell (dedup makes it one inner
   evaluation per distinct key instead of per outer row). *)

let skew_queries =
  [
    (* refused by the conservative rewrite; batched carries it *)
    ( "type-JA-all-refused",
      "SELECT PNUM FROM PARTS WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)" );
    (* all three strategies answer *)
    ( "type-JA-count",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)" );
  ]

let run_skew ~warmup ~reps ~n_parts ~n_supply ~key_range text strategy =
  let once () =
    let rng = Random.State.make [| 42 |] in
    let catalog =
      G.catalog_of ~buffer_pages:1024 ~page_bytes:256
        [
          ("PARTS", G.parts rng ~n:n_parts ~key_range);
          ("SUPPLY", G.supply rng ~n:n_supply ~key_range);
        ]
    in
    let q = F.parse_analyzed catalog text in
    let run =
      match strategy with
      | `Nested -> Some (fun () -> Exec.Sysr_iteration.run catalog q)
      | `Batched ->
          Some
            (fun () -> (Batched_nest.run catalog q).Batched_nest.relation)
      | `Rewrite -> (
          match
            Nest_g.transform
              ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
              q
          with
          | program ->
              Some
                (fun () ->
                  Planner.run_program ~mode:Planner.Hybrid catalog program)
          | exception Nest_g.Unsupported _
          | exception Ja_shape.Not_ja _
          | exception Nest_n_j.Not_applicable _
          | exception Extensions.Unsupported _ -> None)
    in
    Option.map
      (fun run ->
        let result, wall, io = time_io catalog run in
        { s_rows = Relation.cardinality result; s_wall = wall; s_io = io })
      run
  in
  match once () with
  | None -> None
  | Some _ ->
      for _ = 1 to warmup do
        ignore (once ())
      done;
      Some
        (median_sample
           (List.init reps (fun _ -> Option.get (once ()))))

(* Returns the JSON cells plus the assertion outcomes: on every refused
   cell where nested ran, batched must be strictly faster. *)
let json_batched_comparison ~scales ~warmup ~reps () =
  let n_parts = 500 and key_range = 10 in
  List.concat_map
    (fun n_supply ->
      List.map
        (fun (kind, text) ->
          let run s =
            run_skew ~warmup ~reps ~n_parts ~n_supply ~key_range text s
          in
          let nested = Option.get (run `Nested) in
          let batched = Option.get (run `Batched) in
          let rewrite = run `Rewrite in
          let refused = rewrite = None in
          let speedup = nested.s_wall /. batched.s_wall in
          let strategies =
            [
              strategy_json ~name:"nested_iteration" ~engine:"tuple" nested;
              strategy_json ~name:"batched" ~engine:"tuple" batched;
            ]
            @
            match rewrite with
            | Some r ->
                [ strategy_json ~name:"transformed_hybrid" ~engine:"tuple" r ]
            | None -> []
          in
          let cell =
            Json.Obj
              [
                ("query", Str kind);
                ("n_parts", Int n_parts);
                ("supply_rows", Int n_supply);
                ("key_range", Int key_range);
                ("rewrite_refused", Bool refused);
                ("strategies", List strategies);
                ("batched_speedup_vs_nested", Float speedup);
              ]
          in
          let beats = (not refused) || batched.s_wall < nested.s_wall in
          (kind, n_supply, refused, speedup, beats, cell))
        skew_queries)
    scales

(* The §7 crossover: a 10k-row SUPPLY with a B-tree on PNUM, outer size
   swept.  Small outers probe a handful of keys — un-transformed indexed
   nested iteration undercuts any transformed program (which must scan
   all of SUPPLY into a temp); large outers amortize the scan and the
   transformation wins.  Each cell records the estimates of
   Core.decide's indexed rung (indexed_nested_cost vs transformed_floor —
   the decision Core.Auto executes) next to measured I/O for all three
   executions, and the section reports the first outer size at which the
   decision flips to transformed.  Asserted per cell: indexed nested
   iteration beats the {e unindexed} enumeration on total page I/O (the
   probe must pay off), and whenever the decision picks nested, measured
   I/O must agree. *)
let crossover_queries =
  [
    ( "type-J",
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)" );
    ( "type-JA",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)" );
  ]

let json_index_crossover ~outer_sizes ~warmup ~reps () =
  (* Sparse keys: SUPPLY's PNUM spread over [key_range] values, so each
     outer probe fetches ~supply_rows/key_range matches — the selective
     regime where an index pays.  (scaled_catalog's dense keys would make
     every enumeration fetch all 10k rows regardless of outer size.)  The
     pool is smaller than SUPPLY's file, so the unindexed enumeration's
     rescans thrash and show up as physical I/O. *)
  let supply_rows = 10_000 and key_range = 1_000 in
  let cell (kind, text) n_parts =
    let fresh ~indexed () =
      let rng = Random.State.make [| 42 |] in
      let db = Core.create_db ~buffer_pages:256 ~page_bytes:256 () in
      List.iter
        (fun (name, rel) ->
          Catalog.register_relation (Core.catalog db) name rel)
        [
          ("PARTS", G.parts rng ~n:n_parts ~key_range);
          ("SUPPLY", G.supply rng ~n:supply_rows ~key_range);
        ];
      if indexed then Core.create_index db "SUPPLY" ~column:"PNUM";
      db
    in
    let time ~indexed run_of =
      let once () =
        let catalog = Core.catalog (fresh ~indexed ()) in
        let q = F.parse_analyzed catalog text in
        let result, wall, io = time_io catalog (run_of catalog q) in
        { s_rows = Relation.cardinality result; s_wall = wall; s_io = io }
      in
      for _ = 1 to warmup do
        ignore (once ())
      done;
      median_sample (List.init reps (fun _ -> once ()))
    in
    let nested catalog q () = Exec.Sysr_iteration.run catalog q in
    let transformed catalog q =
      let program =
        Nest_g.transform
          ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
          q
      in
      fun () -> Planner.run_program ~mode:Planner.Hybrid catalog program
    in
    let indexed = time ~indexed:true nested in
    let unindexed = time ~indexed:false nested in
    let rewritten = time ~indexed:true transformed in
    (* the decision Core.Auto executes, on the indexed catalog *)
    let est_db = fresh ~indexed:true () in
    let decision =
      Core.decide est_db (Result.get_ok (Core.prepare est_db text)) Core.Auto
    in
    let est_nested, floor =
      match List.assoc Core.Indexed_nested decision with
      | Core.(Viable (Crossover c) | Refused (Crossover c)) ->
          (Json.Float c.nested_cost, Json.Float c.floor)
      | _ -> (Json.Null, Json.Null)
    in
    let picks_nested = Core.picked decision = Ok Core.Indexed_nested in
    let cell_json =
      Json.Obj
        [
          ("query", Str kind);
          ("outer_rows", Int n_parts);
          ("supply_rows", Int supply_rows);
          ("key_range", Int key_range);
          ("est_nested_cost", est_nested);
          ("transformed_floor", floor);
          ("picked", Str (if picks_nested then "nested" else "transformed"));
          ( "strategies",
            List
              [
                strategy_json ~name:"indexed_nested" ~engine:"tuple" indexed;
                strategy_json ~name:"unindexed_nested" ~engine:"tuple"
                  unindexed;
                strategy_json ~name:"transformed_hybrid" ~engine:"tuple"
                  rewritten;
              ] );
        ]
    in
    let probe_pays =
      Pager.total_io indexed.s_io < Pager.total_io unindexed.s_io
    in
    let decision_sound =
      (not picks_nested)
      || Pager.total_io indexed.s_io <= Pager.total_io rewritten.s_io
    in
    (kind, n_parts, picks_nested, indexed, unindexed, rewritten, probe_pays,
     decision_sound, cell_json)
  in
  List.concat_map
    (fun query -> List.map (cell query) outer_sizes)
    crossover_queries

(* Structural v5 schema check on the serialized document: every required
   key must appear.  Substring-based — [Json.to_string] writes keys
   verbatim with no whitespace, so this is exact enough to catch a key
   rename or a dropped section. *)
let validate_v5 doc =
  let required =
    [
      "\"schema_version\":5";
      "\"index_crossover\":";
      "\"est_nested_cost\":";
      "\"transformed_floor\":";
      "\"picked\":\"nested\"";
      "\"crossover_outer_rows\":";
      "\"name\":\"indexed_nested\"";
      "\"batched_comparison\":";
      "\"name\":\"batched\"";
      "\"batched_speedup_vs_nested\":";
      "\"rewrite_refused\":true";
      "\"key_range\":";
      "\"queries\":";
      "\"strategies\":";
      "\"engine\":\"tuple\"";
      "\"engine\":\"vectorized\"";
      "\"timing\":";
      "\"stat\":\"median\"";
      "\"vectorized_speedup_vs_tuple\":";
      "\"vectorized_speedup_10k\":";
      "\"speedup_scale_supply_rows\":";
      "\"hybrid_speedup_10k\":";
      "\"pager_scaling\":";
      "\"operator_breakdowns\":";
      "\"rows_per_call\":";
      "\"batches\":";
    ]
  in
  let contains needle =
    let nl = String.length needle and hl = String.length doc in
    let rec go i =
      i + nl <= hl && (String.sub doc i nl = needle || go (i + 1))
    in
    go 0
  in
  List.filter (fun k -> not (contains k)) required

let json_bench ~smoke () =
  (* Smoke: one small scale, fewer reps — a CI-speed structural run of the
     same code path; the full grid is the perf artifact. *)
  let scales = if smoke then [ 5 ] else [ 5; 10; 25; 50; 100 ] in
  let warmup = 1 in
  let reps = if smoke then 3 else 9 in
  let grid = json_grid ~scales ~warmup ~reps () in
  let flatness, pager_json = json_pager_scaling () in
  (* batched-vs-nested-vs-rewrite on duplicate-skewed keys; nested runs at
     every scale here (500 outer rows keep it tractable at 10k) *)
  let skew =
    json_batched_comparison
      ~scales:(if smoke then [ 1_000 ] else [ 1_000; 10_000 ])
      ~warmup ~reps:(min reps 3) ()
  in
  (* the §7 index crossover: outer size swept against a fixed 10k SUPPLY *)
  let crossover =
    json_index_crossover
      ~outer_sizes:(if smoke then [ 4; 64 ] else [ 4; 16; 64; 256 ])
      ~warmup ~reps:(min reps 3) ()
  in
  (* smallest outer size at which the estimates flip to transformed *)
  let crossover_point kind' =
    List.fold_left
      (fun acc (kind, n, picks_nested, _, _, _, _, _, _) ->
        if kind = kind' && not picks_nested then
          Some (match acc with Some m -> min m n | None -> n)
        else acc)
      None crossover
  in
  (* Headline numbers at the largest scale of this run (10k supply rows on
     the full grid): hybrid-vs-paper, and vectorized-vs-tuple on the hybrid
     plans. *)
  let top_scale =
    List.fold_left (fun m (_, rows, _, _, _) -> max m rows) 0 grid
  in
  let at_top f =
    List.filter_map
      (fun (kind, supply_rows, hybrid_speedup, vec_speedup, _) ->
        if supply_rows = top_scale then
          Some (kind, Json.Float (f hybrid_speedup vec_speedup))
        else None)
      grid
  in
  let doc =
    Json.Obj
      [
        (* v5: adds "index_crossover" — indexed vs unindexed nested
           iteration vs the hybrid rewrite with a B-tree on SUPPLY.PNUM,
           outer size swept; per-cell cost-model verdict
           ("est_nested_cost" / "transformed_floor" / "picked", all read
           from Core.decide's indexed rung) and the headline
           "crossover_outer_rows" where the estimate flips to
           transformed.  v4 keys unchanged: "batched_comparison" — the
           three-strategy head-to-head on duplicate-skewed keys, with
           per-cell "rewrite_refused" and "batched_speedup_vs_nested";
           every transformed cell runs under both engines ("engine"
           field), timing is median-of-k with warm-up ("timing" object),
           per-cell "vectorized_speedup_vs_tuple", headline
           "vectorized_speedup_10k", operator_breakdowns one entry per
           (query, engine). *)
        ("schema_version", Int 5);
        ("speedup_scale_supply_rows", Int top_scale);
        ("queries", List (List.map (fun (_, _, _, _, j) -> j) grid));
        ( "batched_comparison",
          List (List.map (fun (_, _, _, _, _, j) -> j) skew) );
        ( "index_crossover",
          Obj
            [
              ( "cells",
                List
                  (List.map (fun (_, _, _, _, _, _, _, _, j) -> j) crossover)
              );
              ( "crossover_outer_rows",
                Obj
                  (List.map
                     (fun (kind, _) ->
                       ( kind,
                         match crossover_point kind with
                         | Some n -> Json.Int n
                         | None -> Null ))
                     crossover_queries) );
            ] );
        ("pager_scaling", pager_json);
        ("hybrid_speedup_10k", Obj (at_top (fun h _ -> h)));
        ("vectorized_speedup_10k", Obj (at_top (fun _ v -> v)));
        ( "operator_breakdowns",
          List
            (json_operator_breakdowns
               ~supply_per_part:(if smoke then 5 else 25)
               ()) );
      ]
  in
  let path = if smoke then "BENCH_perf.smoke.json" else "BENCH_perf.json" in
  let doc = Json.to_string doc in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc doc;
      Out_channel.output_char oc '\n');
  (* The written file must parse as JSON before any key check runs. *)
  (match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok _ -> ()
  | Error e ->
      Fmt.epr "%s is not valid JSON: %s@." path e;
      exit 1);
  List.iter
    (fun (kind, rows, hybrid_speedup, vec_speedup, _) ->
      Fmt.pr
        "%-8s %6d supply rows: hybrid %.2fx vs paper; vectorized %.2fx vs \
         tuple@."
        kind rows hybrid_speedup vec_speedup)
    grid;
  Fmt.pr "pager page-touch flatness (max/min ns over B=16..8192): %.2f@."
    flatness;
  List.iter
    (fun (kind, rows, refused, speedup, _, _) ->
      Fmt.pr "%-22s %6d supply rows: batched %.2fx vs nested%s@." kind rows
        speedup
        (if refused then " (rewrite refused)" else ""))
    skew;
  List.iter
    (fun (kind, n, picks, indexed, unindexed, rewritten, _, _, _) ->
      Fmt.pr
        "%-8s %4d outer rows: estimate picks %-11s io indexed-nested %d / \
         unindexed %d / transformed %d@."
        kind n
        (if picks then "nested;" else "transformed;")
        (Pager.total_io indexed.s_io)
        (Pager.total_io unindexed.s_io)
        (Pager.total_io rewritten.s_io))
    crossover;
  List.iter
    (fun (kind, _) ->
      Fmt.pr "%-8s crossover to transformed at %s outer rows@." kind
        (match crossover_point kind with
        | Some n -> string_of_int n
        | None -> "(none in sweep)"))
    crossover_queries;
  Fmt.pr "wrote %s@." path;
  (* The refused cell is batching's reason to exist: if it is not faster
     than row-at-a-time nested iteration on skewed keys, the strategy (or
     its dedup) has regressed. *)
  let losses =
    List.filter (fun (_, _, _, _, beats, _) -> not beats) skew
  in
  if losses <> [] then begin
    List.iter
      (fun (kind, rows, _, speedup, _, _) ->
        Fmt.epr
          "batched does NOT beat nested on refused cell %s at %d supply \
           rows (%.2fx)@."
          kind rows speedup)
      losses;
    exit 1
  end;
  (* Index assertions: the probe must pay off (indexed nested beats the
     unindexed enumeration on physical I/O at every cell), the §7 decision
     must be sound (whenever the estimate picks nested, measured I/O must
     agree), and the sweep must contain at least one cell where the
     untransformed indexed iteration is the chosen strategy — the regime
     the paper's uniform-transformation policy misses. *)
  let index_losses =
    List.filter
      (fun (_, _, _, _, _, _, probe_pays, decision_sound, _) ->
        not (probe_pays && decision_sound))
      crossover
  in
  if index_losses <> [] then begin
    List.iter
      (fun (kind, n, picks, indexed, unindexed, rewritten, probe_pays, _, _) ->
        Fmt.epr
          "index crossover cell %s at %d outer rows FAILED (%s): io \
           indexed-nested %d / unindexed %d / transformed %d@."
          kind n
          (if probe_pays then "estimate picked nested but lost on io"
           else "indexed nested did not beat unindexed")
          (Pager.total_io indexed.s_io)
          (Pager.total_io unindexed.s_io)
          (Pager.total_io rewritten.s_io);
        ignore picks)
      index_losses;
    exit 1
  end;
  if
    not
      (List.exists (fun (_, _, picks, _, _, _, _, _, _) -> picks) crossover)
  then begin
    Fmt.epr
      "no crossover cell picks indexed nested iteration — the §7 regime is \
       gone@.";
    exit 1
  end;
  match validate_v5 doc with
  | [] -> Fmt.pr "schema v5 check: ok@."
  | missing ->
      Fmt.epr "schema v5 check FAILED; missing keys:@.";
      List.iter (fun k -> Fmt.epr "  %s@." k) missing;
      exit 1

(* ---------------- driver ------------------------------------------------ *)

let sections =
  [
    ("fig1", fig1); ("sec74", sec74); ("bugs", bugs); ("figure2", figure2);
    ("sweep", sweep); ("ext", ext); ("strategies", strategies);
    ("buffers", buffers); ("indexes", indexes); ("projection", projection);
    ("model", model); ("vec", vec); ("timing", timing);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--json" args then json_bench ~smoke:false ()
  else if List.mem "--smoke" args then json_bench ~smoke:true ()
  else
  let requested = if args <> [] then args else List.map fst sections in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section %s (available: %s)@." name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
