(** Nested SQL query unnesting — reproduction of Ganski & Wong, SIGMOD 1987.

    The facade over the whole pipeline: define tables, parse and classify
    nested queries, transform them with NEST-G (NEST-N-J / NEST-JA2 / the §8
    extension rewrites), plan and execute either strategy over paged storage
    with page-I/O accounting, and compare results side by side. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Pager = Storage.Pager
module Catalog = Storage.Catalog

type db

val version : string

(** [create_db ~buffer_pages ~page_bytes ()] — [buffer_pages] is the
    paper's B. *)
val create_db : ?buffer_pages:int -> ?page_bytes:int -> unit -> db

val catalog : db -> Catalog.t

(** [define_table db name columns rows] registers a base table.
    @raise Invalid_argument on malformed rows or duplicate names. *)
val define_table :
  db -> string -> (string * Value.ty) list -> Value.t list list -> unit

(** @raise Catalog.Unknown_table *)
val table : db -> string -> Relation.t

(** [create_index db table ~column] builds a B-tree on [table.column]
    (build page I/O is charged to the pager; see {!Storage.Btree.build}).
    @raise Catalog.Unknown_table *)
val create_index : db -> string -> column:string -> unit

(** Recognize/parse the [CREATE INDEX [name] ON table (column)] DDL the
    CLI, REPL and server all accept.  [parse_create_index] returns
    [(table, column)]; [execute_create_index] validates against the
    catalog and builds the index, returning a human-readable summary. *)
val parse_create_index : string -> (string * string) option

val is_create_index : string -> bool
val execute_create_index : db -> string -> (string, string) result

(** The §7 crossover decision Auto makes before transforming (the
    {!Indexed_nested} rung of {!decide}): [Some
    (nested_cost, transformed_floor)] when estimated indexed nested
    iteration strictly undercuts the page-count lower bound of any
    transformed program ({!Optimizer.Estimate.transformed_floor});
    [None] when no index probe applies or the floor wins. *)
val indexed_nested_choice : db -> Sql.Ast.query -> (float * float) option

(** Parse and analyze (name resolution, literal coercion, validation). *)
val parse : db -> string -> (Sql.Ast.query, string) result

(** Kim's classification of the query's nesting ([None] for flat queries). *)
val classify : db -> string -> (Optimizer.Classify.t option, string) result

(** Full NEST-G transformation to a canonical program.  [rewrite_not_in]
    enables the beyond-the-paper NOT IN → COUNT rewrite; [on_step] receives
    a trace line per transformation action. *)
val transform :
  ?rewrite_not_in:bool ->
  ?on_step:(string -> unit) ->
  db ->
  string ->
  (Optimizer.Program.t, string) result

(** [transform] plus the collected trace lines, in order. *)
val transform_traced :
  ?rewrite_not_in:bool ->
  db ->
  string ->
  (Optimizer.Program.t * string list, string) result

(** The Figure-2-style query-block tree. *)
val query_tree : db -> string -> (Optimizer.Query_tree.t, string) result

(** Lint one or more ';'-separated queries: parse/analysis diagnostics
    (NQ100/NQ101), Kim-classification cross-check and the paper's three
    bug-class warnings (NQ001 COUNT bug, NQ002 non-equality correlation,
    NQ003 duplicate outer join column) plus hygiene checks, and — for
    transformable queries — structural verification of the transformed
    program (NQ900–NQ906).  See docs/LINT.md. *)
val lint_query : db -> string -> Analysis.Diagnostics.t list

type check_report = {
  ck_sql : string;  (** canonical rendering of the checked query *)
  ck_refused : string option;
      (** the transformation refusal message, when the query has no rewrite
          to check *)
  ck_diags : Analysis.Diagnostics.t list;
      (** plan-validation (NQ110–NQ115) and equivalence (NQ120–NQ122)
          diagnostics, sorted *)
  ck_verdict : Analysis.Equiv_check.verdict option;
  ck_certificate : string option;
      (** one-line bounded-equivalence certificate *)
  ck_repro : string option;
      (** counterexample database as a replayable oracle repro [.sql] *)
}
(** The result of the semantic checker over one query: typed validation of
    every lowered physical plan of its transformed program, plus the
    bounded counterexample search for the rewrite itself. *)

(** Check one analyzed query (see {!check_source} for text input).
    [bound] is the rows-per-relation search bound (default 2). *)
val check_query : ?bound:int -> db -> Sql.Ast.query -> check_report

(** Parse, analyze and {!check_query} one or more ';'-separated queries. *)
val check_source :
  ?bound:int -> db -> string -> (check_report list, string) result

type strategy =
  | Nested_iteration  (** the System R method, over paged storage *)
  | Transformed of Optimizer.Planner.join_choice
  | Batched of Optimizer.Planner.join_choice
      (** Guravannavar batched bindings ({!Optimizer.Batched_nest}): the
          planner-lowered outer block, one inner evaluation per distinct
          correlation-key batch *)
  | Auto  (** the four-rung ladder of {!decide} *)

(** ["nested"] / ["transformed"] / ["batched"] / ["auto"] — the shared
    vocabulary of the CLI [--strategy], the REPL [\strategy] and the server
    protocol.  Join forcing is orthogonal; the bare names carry
    [Planner.Auto].  {!strategy_of_string} is case-insensitive, also
    accepts ["nested-iteration"], and returns [None] for anything else —
    callers must treat that as an error, never a silent default. *)
val strategy_name : strategy -> string

val strategy_of_string : string -> strategy option

(** Which path actually produced a result — [Auto] resolves to one of the
    concrete three. *)
type via = Via_nested | Via_transformed | Via_batched

(** ["nested_iteration"] / ["transformed"] / ["batched"], as the server's
    [strategy] result field reports. *)
val via_name : via -> string

type execution = {
  result : Relation.t;
  via : via;
  program : Optimizer.Program.t option;
  batches : Optimizer.Batched_nest.batch list;
      (** per-subquery batch counts; non-empty only under [Via_batched] *)
  io : Pager.stats;  (** page traffic of this execution only *)
}

type prepared = {
  normalized : string;
      (** canonical rendering of the analyzed AST ([Sql.Pp]); two statements
          differing only in whitespace/case normalize identically, which is
          what the server's plan cache keys on *)
  query : Sql.Ast.query;  (** the analyzed AST *)
  rewrite_not_in : bool;  (** the flag the transformation was prepared with *)
  program : (Optimizer.Program.t, string) result Lazy.t;
      (** the NEST-G transformation, forced at most once ([Error] = not
          transformable).  Not thread-safe to force concurrently — the
          server forces it under its statement lock. *)
}
(** A statement with the per-statement pipeline work — parse, analyze,
    normalize, transform — done once, ready to be executed many times.
    This is the unit the server's plan cache stores. *)

(** Parse + analyze + (lazily) transform one statement. *)
val prepare : ?rewrite_not_in:bool -> db -> string -> (prepared, string) result

(** {!prepare} for an already-analyzed query (no re-parse). *)
val prepare_query : ?rewrite_not_in:bool -> db -> Sql.Ast.query -> prepared

(** The strategy ladder, top first: untransformed indexed nested
    iteration ({!indexed_nested_choice}), the verified rewrite, batched
    bindings ({!Optimizer.Estimate.prefer_batched}), nested iteration.  A
    forced strategy is a one-rung ladder. *)
type rung = Indexed_nested | Transformed_rung | Batched_rung | Nested_rung

val rung_name : rung -> string
val rung_via : rung -> via

(** Why a rung is viable or refused: a note, or the indexed rung's two
    page-I/O estimates (viable iff [nested_cost < floor]).  A run leaves
    the rungs below its pick [Unevaluated]. *)
type reason =
  | Because of string
  | Crossover of { nested_cost : float; floor : float }

type verdict = Viable of reason | Refused of reason | Unevaluated

(** The rungs in ladder order, each with its verdict. *)
type decision = (rung * verdict) list

(** The first viable rung, else the last rung's refusal reason. *)
val picked : decision -> (rung, string) result

(** What {!run_prepared} executes and EXPLAIN prints, with every rung
    assessed. *)
val decide : db -> prepared -> strategy -> decision

(** Execute a prepared statement: exactly {!run} minus the per-statement
    work.  [run p] and [run_prepared (prepare p)] are result-identical —
    the plan-cache test suite holds this across strategies, modes and
    engines under the oracle comparator. *)
val run_prepared :
  ?strategy:strategy ->
  ?check:bool ->
  ?mode:Optimizer.Planner.mode ->
  ?engine:Exec.Plan.engine ->
  ?trace:(string -> unit) ->
  db ->
  prepared ->
  (execution, string) result

(** Run a query: execute the rung {!decide} picks; a rung that refuses at
    run time hands over to the rung below it.  [trace] turns on
    per-operator JSON event tracing for plan-based executions (one line
    per operator open / next-batch / close; see [docs/EXPLAIN.md]).
    [rewrite_not_in] and [mode] parameterize the transformed path exactly
    as {!transform} and {!Optimizer.Planner.run_program} do (the
    differential oracle sweeps them).  [engine] selects tuple-at-a-time
    (default) or vectorized batch execution for plan-based paths; nested
    iteration is tuple-only and ignores it.  [check] additionally
    type-checks every lowered physical plan ({!Analysis.Plan_check})
    before it executes and refuses on any violation. *)
val run :
  ?strategy:strategy ->
  ?check:bool ->
  ?rewrite_not_in:bool ->
  ?mode:Optimizer.Planner.mode ->
  ?engine:Exec.Plan.engine ->
  ?trace:(string -> unit) ->
  db ->
  string ->
  (execution, string) result

(** [run] and keep only the rows. *)
val query : db -> string -> (Relation.t, string) result

(** EXPLAIN \[ANALYZE]: transformed program + physical plans as annotated
    text (planner cost/cardinality estimates per operator).  With
    [~analyze:true] the program is also executed, instrumented, and each
    operator gains actual rows / [next] calls / wall-clock / page I/Os;
    [trace] receives one JSON line per operator event
    (see [docs/EXPLAIN.md]).  [engine] as in {!run}; under the vectorized
    engine actuals include [rows/call] > 1 and a [batches] count.
    [strategy] and [rewrite_not_in] as in {!run}: the rung it would
    execute is explained.  [Batched _] explains the outer block's plan
    plus one [batch] line per WHERE subquery.  Under [Auto] a pick other
    than the rewrite leads with the decision: ["auto: <picked rung>"],
    then one verdict line per rung.  A forced
    [Nested_iteration] is an error: it has no physical plan. *)
val explain_query :
  ?strategy:strategy ->
  ?rewrite_not_in:bool ->
  ?mode:Optimizer.Planner.mode ->
  ?analyze:bool ->
  ?engine:Exec.Plan.engine ->
  ?trace:(string -> unit) ->
  db ->
  string ->
  (string, string) result

(** Transformed program + physical plans, as text — [explain_query] without
    analysis. *)
val explain : db -> string -> (string, string) result

type comparison = {
  nested : execution;
  transformed : execution option;  (** [None] when not transformable *)
  agree : bool;  (** set-equality of results; see DESIGN.md on duplicates *)
}

(** Run both strategies and compare results and I/O. *)
val compare_strategies : db -> string -> (comparison, string) result

val pp_execution : execution Fmt.t
