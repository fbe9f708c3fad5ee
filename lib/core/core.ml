(* Public facade: everything a user of the library needs for the
   parse → analyze → classify → transform → plan → execute pipeline, plus
   side-by-side comparison of the two evaluation strategies (the experiment
   the whole paper is about). *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Pager = Storage.Pager
module Catalog = Storage.Catalog

type db = { catalog : Catalog.t }

let version = "1.0.0"

let create_db ?(buffer_pages = 8) ?(page_bytes = 4096) () =
  { catalog = Catalog.create (Pager.create ~buffer_pages ~page_bytes ()) }

let catalog db = db.catalog

let define_table db name columns rows =
  Catalog.register_relation db.catalog name
    (Relation.of_values ~rel:name columns rows)

let table db name = Catalog.relation db.catalog name

let create_index db name ~column = Catalog.create_index db.catalog name ~column

(* [CREATE INDEX [idx_name] ON table (column)] — one parser shared by the
   CLI, the REPL and the server so the accepted DDL can't drift.  The
   optional index name is accepted (and discarded: at most one index per
   column, named by position).  Returns [(table, column)]. *)
let parse_create_index text : (string * string) option =
  let text =
    match String.index_opt text ';' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  let tokens =
    String.split_on_char ' '
      (String.map
         (function '(' | ')' | '\t' | '\n' | '\r' | ',' -> ' ' | c -> c)
         text)
    |> List.filter (fun s -> s <> "")
  in
  let keyword k t = String.uppercase_ascii t = k in
  match tokens with
  | [ create; index; on; table; column ]
    when keyword "CREATE" create && keyword "INDEX" index && keyword "ON" on
    ->
      Some (table, column)
  | [ create; index; _name; on; table; column ]
    when keyword "CREATE" create && keyword "INDEX" index && keyword "ON" on
    ->
      Some (table, column)
  | _ -> None

let is_create_index text = Option.is_some (parse_create_index text)

let execute_create_index db text : (string, string) result =
  match parse_create_index text with
  | None ->
      Error "syntax: CREATE INDEX [name] ON table (column)"
  | Some (table, column) -> (
      match Catalog.lookup db.catalog table with
      | None -> Error (Fmt.str "unknown table %s" table)
      | Some schema -> (
          match Schema.find_opt schema column with
          | None -> Error (Fmt.str "no column %s in %s" column table)
          | exception Schema.Ambiguous _ ->
              Error (Fmt.str "ambiguous column %s in %s" column table)
          | Some _ ->
              if List.mem column (Catalog.indexed_columns db.catalog table)
              then Ok (Fmt.str "index on %s(%s) already exists" table column)
              else begin
                Catalog.create_index db.catalog table ~column;
                Ok (Fmt.str "created index on %s(%s)" table column)
              end))

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                     *)
(* ------------------------------------------------------------------ *)

let parse db text =
  match Sql.Parser.parse text with
  | Error _ as e -> e
  | Ok q -> Sql.Analyzer.analyze ~lookup:(Catalog.lookup db.catalog) q

let classify db text =
  Result.map Optimizer.Classify.classify_query (parse db text)

(* Exact catalog statistics of [rel.col]; [None] when unresolvable. *)
let column_stat db ~rel col =
  match Catalog.lookup db.catalog rel with
  | None -> None
  | Some schema -> (
      match Schema.find_opt schema col with
      | Some i -> Some (Storage.Stats.column (Catalog.stats db.catalog rel) i)
      | None | (exception Schema.Ambiguous _) -> None)

(* "May [col] of relation [rel] be NULL?" (relations are immutable once
   registered, so nulls = 0 is a proof).  Feeds the soundness guards of
   the §8 COUNT-form rewrites and the NOT IN extension; anything
   unresolvable stays conservatively nullable. *)
let column_nullable db ~rel col =
  match column_stat db ~rel col with
  | Some cs -> cs.Storage.Stats.nulls > 0
  | None -> true

(* NEST-G over an already-analyzed query; [transform] and the prepared-
   statement path both come through here. *)
let transform_query ?(rewrite_not_in = false) ?on_step db q =
  let fresh () = Catalog.fresh_temp_name db.catalog in
  match
    Optimizer.Nest_g.transform ~rewrite_not_in ~nullable:(column_nullable db)
      ?on_step ~fresh q
  with
  | program -> Ok program
  | exception Optimizer.Nest_g.Unsupported msg
  | exception Optimizer.Ja_shape.Not_ja msg
  | exception Optimizer.Nest_n_j.Not_applicable msg
  | exception Optimizer.Extensions.Unsupported msg ->
      Error ("not transformable: " ^ msg)

let transform ?rewrite_not_in ?on_step db text =
  match parse db text with
  | Error _ as e -> e
  | Ok q -> transform_query ?rewrite_not_in ?on_step db q

(* The transformation together with its step-by-step trace. *)
let transform_traced ?rewrite_not_in db text =
  let steps = ref [] in
  let on_step s = steps := s :: !steps in
  Result.map
    (fun program -> (program, List.rev !steps))
    (transform ?rewrite_not_in ~on_step db text)

(* The paper's query-tree view (Figure 2). *)
let query_tree db text =
  Result.map Optimizer.Query_tree.of_query (parse db text)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

(* The injection points of the analysis library: the optimizer's classifier
   as the cross-check oracle, catalog statistics for the duplicate-join-
   column check. *)
let classify_oracle sub =
  Optimizer.Classify.name (Optimizer.Classify.classify_block sub)

let column_stats db rel col =
  Option.map
    (fun cs -> (cs.Storage.Stats.distinct, Catalog.tuples db.catalog rel))
    (column_stat db ~rel col)

(* Lint one or more ';'-separated queries: parse/analysis diagnostics
   (NQ100/NQ101), the static checks (NQ001-NQ008), and — when a query is
   transformable — structural verification of its transformed program
   (NQ900-NQ906), so a broken rewrite surfaces as a lint error before
   anything executes. *)
let lint_query db text : Analysis.Diagnostics.t list =
  let lookup = Catalog.lookup db.catalog in
  let base =
    Analysis.Lint.lint_source ~classify:classify_oracle
      ~column_stats:(column_stats db) ~lookup text
  in
  let verify_diags =
    if Analysis.Diagnostics.has_errors base then []
    else
      match Sql.Parser.parse_many_exn text with
      | exception Sql.Parser.Error _ | exception Sql.Lexer.Error _ -> []
      | queries ->
          List.concat_map
            (fun q ->
              match Sql.Analyzer.analyze ~lookup q with
              | Error _ -> []
              | Ok q -> (
                  match transform_query db q with
                  | Ok p -> Optimizer.Planner.verify_program db.catalog p
                  | Error _ -> []))
            queries
  in
  Analysis.Diagnostics.sort (base @ verify_diags)

(* ------------------------------------------------------------------ *)
(* Semantic checking (bounded equivalence)                            *)
(* ------------------------------------------------------------------ *)

(* One query through the checker: search for a bounded counterexample to
   the rewrite (NQ120-NQ122).  A query the transformation refuses yields
   an empty report — there is no rewrite to falsify, and the refusal
   itself is the lint layer's business. *)
type check_report = {
  ck_sql : string;  (* canonical rendering of the checked query *)
  ck_refused : string option;  (* transformation refusal, when any *)
  ck_diags : Analysis.Diagnostics.t list;
  ck_verdict : Analysis.Equiv_check.verdict option;
  ck_certificate : string option;
  ck_repro : string option;  (* witness database as a replayable .sql *)
}

(* The bounded counterexample search for one rewrite of [q] (NQ120-NQ122);
   `check` reports its verdict, EXPLAIN its one-line certificate. *)
let equivalence ?bound db q (program : Optimizer.Program.t) =
  Analysis.Equiv_check.check ?bound ~nullable:(column_nullable db)
    ~lookup:(Catalog.lookup db.catalog)
    ~temps:
      (List.map
         (fun { Optimizer.Program.name; def } -> (name, def))
         program.Optimizer.Program.temps)
    ~main:program.Optimizer.Program.main q

let check_query ?(bound = 2) db (q : Sql.Ast.query) : check_report =
  let ck_sql = Sql.Pp.query_to_string q in
  match transform_query db q with
  | Error msg ->
      {
        ck_sql;
        ck_refused = Some msg;
        ck_diags = [];
        ck_verdict = None;
        ck_certificate = None;
        ck_repro = None;
      }
  | Ok program ->
      let verdict = equivalence ~bound db q program in
      let repro =
        match verdict with
        | Analysis.Equiv_check.Not_equivalent w ->
            Some (Analysis.Equiv_check.witness_to_repro ~original:q w)
        | _ -> None
      in
      {
        ck_sql;
        ck_refused = None;
        ck_diags =
          Analysis.Diagnostics.sort
            (Analysis.Equiv_check.diagnostics ~span:q.Sql.Ast.span verdict);
        ck_verdict = Some verdict;
        ck_certificate = Some (Analysis.Equiv_check.certificate verdict);
        ck_repro = repro;
      }

(* Check one or more ';'-separated queries (the `nestsql check` surface). *)
let check_source ?bound db text : (check_report list, string) result =
  match Sql.Parser.parse_many_exn text with
  | exception Sql.Parser.Error (_, msg) -> Error msg
  | exception Sql.Lexer.Error (_, msg) -> Error msg
  | queries -> (
      let analyzed =
        List.map
          (Sql.Analyzer.analyze ~lookup:(Catalog.lookup db.catalog))
          queries
      in
      match
        List.find_map
          (function Error msg -> Some msg | Ok _ -> None)
          analyzed
      with
      | Some msg -> Error msg
      | None ->
          Ok
            (List.map
               (function
                 | Ok q -> check_query ?bound db q
                 | Error _ -> assert false)
               analyzed))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type strategy =
  | Nested_iteration (* the System R method, over paged storage *)
  | Transformed of Optimizer.Planner.join_choice
  | Batched of Optimizer.Planner.join_choice
    (* Guravannavar batched bindings: planner-lowered outer block, one
       inner evaluation per distinct correlation-key batch *)
  | Auto (* the rung ladder below *)

(* The names the CLI (--strategy), the REPL (\strategy) and the server
   protocol all accept — one parser so the surfaces can't drift.  Join
   forcing is orthogonal (the --join flag / force knob); the bare names
   map to [Planner.Auto]. *)
let strategy_name = function
  | Nested_iteration -> "nested"
  | Transformed _ -> "transformed"
  | Batched _ -> "batched"
  | Auto -> "auto"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "nested" | "nested-iteration" -> Some Nested_iteration
  | "transformed" -> Some (Transformed Optimizer.Planner.Auto)
  | "batched" -> Some (Batched Optimizer.Planner.Auto)
  | _ -> None

(* Which path actually produced the result (Auto resolves to one of the
   concrete three). *)
type via = Via_nested | Via_transformed | Via_batched

let via_name = function
  | Via_nested -> "nested_iteration"
  | Via_transformed -> "transformed"
  | Via_batched -> "batched"

type execution = {
  result : Relation.t;
  via : via;
  program : Optimizer.Program.t option;
  batches : Optimizer.Batched_nest.batch list;
      (* per-subquery batch counts; non-empty only under [Via_batched] *)
  io : Pager.stats; (* page traffic of this execution only *)
}

(* A statement with the per-statement work done once: parse/analyze (the
   analyzed AST), the normalized rendering (the server's plan-cache key
   text), and the NEST-G transformation — lazy so strategies that never
   touch the transformed path ([Nested_iteration]) don't pay for it, and
   forced at most once however many times the plan is re-executed. *)
type prepared = {
  normalized : string;
  query : Sql.Ast.query;
  rewrite_not_in : bool;
  program : (Optimizer.Program.t, string) result Lazy.t;
}

let prepare_query ?(rewrite_not_in = false) db q =
  {
    normalized = Sql.Pp.query_to_string q;
    query = q;
    rewrite_not_in;
    program = lazy (transform_query ~rewrite_not_in db q);
  }

let prepare ?rewrite_not_in db text =
  Result.map (prepare_query ?rewrite_not_in db) (parse db text)

(* ------------------------------------------------------------------ *)
(* The strategy ladder: one decision for run, EXPLAIN and the bench    *)
(* ------------------------------------------------------------------ *)

(* §7: unnesting is a costed choice, not a rule.  Auto climbs four rungs,
   top first, and takes the first one that does not refuse; a forced
   strategy is a one-rung ladder. *)
type rung = Indexed_nested | Transformed_rung | Batched_rung | Nested_rung

let rung_name = function
  | Indexed_nested -> "indexed nested iteration"
  | Transformed_rung -> "transformed"
  | Batched_rung -> "batched"
  | Nested_rung -> "nested iteration"

let rung_via = function
  | Indexed_nested | Nested_rung -> Via_nested
  | Transformed_rung -> Via_transformed
  | Batched_rung -> Via_batched

let ladder = function
  | Auto -> [ Indexed_nested; Transformed_rung; Batched_rung; Nested_rung ]
  | Transformed _ -> [ Transformed_rung ]
  | Batched _ -> [ Batched_rung ]
  | Nested_iteration -> [ Nested_rung ]

type reason =
  | Because of string
  | Crossover of { nested_cost : float; floor : float }

type verdict = Viable of reason | Refused of reason | Unevaluated
type decision = (rung * verdict) list

let pp_reason ~viable ppf = function
  | Because why -> Fmt.string ppf why
  | Crossover { nested_cost; floor } ->
      Fmt.pf ppf "est. %.0f page I/O %s transformed floor %.0f" nested_cost
        (if viable then "<" else ">=")
        floor

(* The §7 crossover: when the frames of the nested enumeration (outer
   block and correlated subqueries) can probe B-trees, the un-transformed
   program's estimated page traffic can undercut *any* transformed
   program — whose temps must read every referenced relation at least
   once, which is what [Estimate.transformed_floor] counts.  Choosing
   nested iteration only when its estimate is strictly below that lower
   bound can never pick the slower side.  Refused whenever no index
   applies, so databases without indexes behave exactly as before. *)
let indexed_verdict db (q : Sql.Ast.query) =
  match Optimizer.Estimate.indexed_nested_cost db.catalog q with
  | None -> Refused (Because "no index probe applies")
  | Some nested_cost ->
      let floor = Optimizer.Estimate.transformed_floor db.catalog q in
      let c = Crossover { nested_cost; floor } in
      if nested_cost < floor then Viable c else Refused c

let indexed_nested_choice db q =
  match indexed_verdict db q with
  | Viable (Crossover { nested_cost; floor }) -> Some (nested_cost, floor)
  | _ -> None

(* One rung's estimate or refusal reason.  Batched must beat the rung
   below it, so it is costed only when one exists. *)
let assess db (p : prepared) ~last = function
  | Indexed_nested -> indexed_verdict db p.query
  | Transformed_rung -> (
      match Lazy.force p.program with
      | Error msg -> Refused (Because msg)
      | Ok program -> (
          (* the only verification a statement gets (NQ900-NQ906) *)
          match Optimizer.Planner.verification_failure db.catalog program with
          | Some msg -> Refused (Because msg)
          | None -> Viable (Because "verified rewrite")))
  | Batched_rung when last -> Viable (Because "forced")
  | Batched_rung ->
      if Optimizer.Estimate.prefer_batched db.catalog p.query then
        Viable (Because "est. fewer inner evaluations than nested iteration")
      else
        Refused
          (Because "est. no fewer inner evaluations than nested iteration")
  | Nested_rung -> Viable (Because "refuses nothing")

(* The first viable rung; when every rung refuses, the last refusal. *)
let rec picked (d : decision) =
  match d with
  | (rung, Viable _) :: _ -> Ok rung
  | [ (_, Refused r) ] -> Error (Fmt.str "%a" (pp_reason ~viable:false) r)
  | _ :: below -> picked below
  | [] -> assert false (* a ladder's last rung is always assessed *)

(* Assess the unevaluated rungs top-down, stopping at the first viable
   one unless [all]. *)
let settle ~all db p d =
  let rec go = function
    | [] -> []
    | (rung, Unevaluated) :: below -> (
        match assess db p ~last:(below = []) rung with
        | Viable _ as v when not all -> (rung, v) :: below
        | v -> (rung, v) :: go below)
    | assessed :: below -> assessed :: go below
  in
  go d

(* Hand the picked rung to [act]; when [act] refuses it at run time (a
   planning error, or batched's one unbatchable shape under the refusal
   prefix the transformation guards use, so the oracle treats it
   uniformly) the rung is marked refused and the climb resumes below it. *)
let climb ~all db p strategy act =
  let rec go d =
    match picked d with
    | Error msg -> (d, Error msg)
    | Ok rung -> (
        let refuse msg =
          let mark (r, v) =
            (r, if r = rung then Refused (Because msg) else v)
          in
          go (settle ~all db p (List.map mark d))
        in
        match act d rung with
        | v -> (d, Ok v)
        | exception Optimizer.Batched_nest.Unsupported msg ->
            refuse ("not transformable: batched: " ^ msg)
        | exception Optimizer.Planner.Planning_error msg -> refuse msg)
  in
  go (settle ~all db p (List.map (fun r -> (r, Unevaluated)) (ladder strategy)))

let decide db p strategy =
  fst (climb ~all:true db p strategy (fun _ _ -> ()))

let pp_decision ppf d =
  let pick = picked d and pp_viable = pp_reason ~viable:true in
  Fmt.pf ppf "auto: %s"
    (match pick with Ok rung -> rung_name rung | Error msg -> msg);
  List.iter
    (fun (rung, v) ->
      Fmt.pf ppf "@\n  %-24s  " (rung_name rung);
      match v with
      | Viable r when pick = Ok rung -> Fmt.pf ppf "picked — %a" pp_viable r
      | Viable r -> Fmt.pf ppf "viable — %a" pp_viable r
      | Refused r -> Fmt.pf ppf "refused — %a" (pp_reason ~viable:false) r
      | Unevaluated -> Fmt.string ppf "not evaluated")
    d

let force_of = function
  | Transformed force | Batched force -> force
  | Auto | Nested_iteration -> Optimizer.Planner.Auto

let run_prepared ?(strategy = Auto) ?mode ?engine ?trace db
    (p : prepared) : (execution, string) result =
  let q = p.query in
  let force = force_of strategy in
  let pager = Catalog.pager db.catalog in
  (* one instrumentation session for the whole pipeline; nested iteration
     has no operator tree, so trace only covers plans *)
  let session =
    Option.map (fun t -> Exec.Explain.session ~trace:t pager) trace
  in
  let execute _ rung =
    let before = Pager.snapshot pager in
    let finish ?program ?(batches = []) result =
      {
        result;
        via = rung_via rung;
        program;
        batches;
        io = Pager.diff_since pager before;
      }
    in
    match rung with
    | Indexed_nested | Nested_rung ->
        finish (Exec.Sysr_iteration.run db.catalog q)
    | Batched_rung ->
        let { Optimizer.Batched_nest.relation; batches } =
          Optimizer.Batched_nest.run ~force ?mode ?engine ?session db.catalog q
        in
        finish ~batches relation
    | Transformed_rung ->
        let program = Result.get_ok (Lazy.force p.program) in
        let result =
          Optimizer.Planner.run_program ~force ?mode ?engine ?session
            db.catalog program
        in
        (* ORDER BY is presentation, not plan structure: the nested paths
           sort inside [run]; the transformed path must sort here or a
           sorted query silently loses its order. *)
        let e = finish ~program (Exec.Presentation.apply_order q result) in
        Optimizer.Planner.drop_temps db.catalog program;
        e
  in
  snd (climb ~all:false db p strategy execute)

let run ?strategy ?rewrite_not_in ?mode ?engine ?trace db text :
    (execution, string) result =
  match prepare ?rewrite_not_in db text with
  | Error _ as e -> e
  | Ok p -> run_prepared ?strategy ?mode ?engine ?trace db p

(* Convenience: the relation only. *)
let query db text : (Relation.t, string) result =
  Result.map (fun e -> e.result) (run db text)

(* One line per index probe the nested enumeration would use, across the
   outer block and every WHERE subquery (recursively): the evidence EXPLAIN
   prints when Auto picks un-transformed indexed nested iteration. *)
let probe_report db (q : Sql.Ast.query) : string list =
  let rec go ~outer_aliases (q : Sql.Ast.query) =
    List.map
      (fun (alias, column, rhs) ->
        Fmt.str "  probe: %s.%s = %a" alias column Sql.Pp.pp_scalar rhs)
      (Exec.Sysr_iteration.probes db.catalog ~outer_aliases q)
    @ List.concat_map
        (go ~outer_aliases:(outer_aliases @ List.map Sql.Ast.from_alias q.from))
        (Sql.Ast.subqueries q)
  in
  go ~outer_aliases:[] q

let explain_query ?(strategy = Auto) ?rewrite_not_in ?mode ?(analyze = false)
    ?engine ?trace db text : (string, string) result =
  match prepare ?rewrite_not_in db text with
  | Error _ as e -> e
  | Ok _ when strategy = Nested_iteration ->
      Error "nested iteration has no physical plan to explain"
  | Ok p -> (
      let q = p.query in
      (* Every accepted rewrite carries its bounded-equivalence certificate:
         the counterexample search at k=2 over the abstract
         {const₁, const₂, NULL} domain, in one line (see docs/LINT.md). *)
      let transformed () =
        let program = Result.get_ok (Lazy.force p.program) in
        let text =
          Optimizer.Planner.explain_text ?mode ~analyze ?engine ?trace
            db.catalog program
        in
        text ^ "\n"
        ^ Analysis.Equiv_check.certificate (equivalence db q program)
      in
      let render d = function
        | Transformed_rung -> transformed ()
        | Batched_rung ->
            (* no transformed program: the outer block's physical plan plus
               one line per WHERE subquery — its correlation keys, and under
               ANALYZE the measured outer-row / distinct-binding counts *)
            Optimizer.Batched_nest.explain ~force:(force_of strategy) ?mode
              ?engine ~analyze db.catalog q
        | Nested_rung -> ""
        | Indexed_nested -> (
            (* nested iteration has no plan tree: the probes are the
               evidence, then the rewrite the decision turned down *)
            let probes = String.concat "\n" (probe_report db q) in
            match List.assoc Transformed_rung d with
            | Viable _ -> (
                match transformed () with
                | alt -> probes ^ "\ntransformed alternative:\n" ^ alt
                | exception Optimizer.Planner.Planning_error _ -> probes)
            | _ -> probes)
      in
      match climb ~all:true db p strategy render with
      | _, (Error _ as e) -> e
      | d, Ok body when strategy <> Auto || picked d = Ok Transformed_rung ->
          Ok body
      | d, Ok "" -> Ok (Fmt.str "%a" pp_decision d)
      | d, Ok body -> Ok (Fmt.str "%a@\n%s" pp_decision d body))

let explain db text : (string, string) result = explain_query db text

(* ------------------------------------------------------------------ *)
(* Side-by-side comparison (the paper's experiment)                    *)
(* ------------------------------------------------------------------ *)

type comparison = {
  nested : execution;
  transformed : execution option; (* None when not transformable *)
  agree : bool; (* results equal as sets (see DESIGN.md on duplicates) *)
}

let compare_strategies db text : (comparison, string) result =
  match run ~strategy:Nested_iteration db text with
  | Error _ as e -> e
  | Ok nested -> (
      match run ~strategy:(Transformed Optimizer.Planner.Auto) db text with
      | Error _ -> Ok { nested; transformed = None; agree = true }
      | Ok transformed ->
          Ok
            {
              nested;
              transformed = Some transformed;
              agree = Relation.equal_set nested.result transformed.result;
            })

let pp_execution ppf (e : execution) =
  Fmt.pf ppf "%s: %d rows, %a"
    (match e.via with
    | Via_transformed -> "transformed"
    | Via_batched -> "batched"
    | Via_nested -> "nested iteration")
    (Relation.cardinality e.result)
    Pager.pp_stats e.io;
  List.iter
    (fun b -> Fmt.pf ppf "@ %a" Optimizer.Batched_nest.pp_batch b)
    e.batches
