(** The execution matrix: one query evaluated by the non-optimizing
    reference (in-memory nested iteration + presentation ORDER BY) and by
    every candidate path — paged nested iteration; the NEST-G rewrite
    under every (NOT-IN flag x planner mode x forced join method x
    execution engine) cell; the batched-bindings strategy
    ({!Optimizer.Batched_nest}) under every (mode x join choice x engine)
    cell — the third independent executor, accepting shapes the guarded
    rewrites refuse; and the end-to-end Auto ladder (transform, else
    batched, else nested iteration) under every (NOT-IN flag x mode x
    engine) cell.  A candidate may {e refuse} (not transformable /
    soundness guard / the one unbatchable shape); a candidate that answers
    must agree with the reference under the NULL-aware comparator. *)

type candidate =
  | Paged_nested
  | Rewrite of {
      rewrite_not_in : bool;
      mode : Optimizer.Planner.mode;
      force : Optimizer.Planner.join_choice;
      engine : Exec.Plan.engine;
    }
  | Batched of {
      mode : Optimizer.Planner.mode;
      force : Optimizer.Planner.join_choice;
      engine : Exec.Plan.engine;
    }
  | Auto_path of {
      rewrite_not_in : bool;
      mode : Optimizer.Planner.mode;
      engine : Exec.Plan.engine;
    }
  | Indexed_nested
      (** paged nested iteration with a B-tree on every column — the
          probe-based enumeration must agree with full rescans *)
  | Indexed_rewrite of { mode : Optimizer.Planner.mode }
      (** planner free to choose IndexScan / index nested-loop joins *)
  | Indexed_auto of { mode : Optimizer.Planner.mode }
      (** the end-to-end ladder including the §7 crossover decision *)

val candidate_label : candidate -> string

(** The full grid, 54 cells: paged nested iteration + 24 forced-join
    rewrite cells + 16 batched cells + 8 end-to-end Auto cells (vectorized
    cells carry a ["/vec"] label suffix) + 5 index-axis cells that rerun
    nested/rewrite/auto with a B-tree on every column.  The Auto cells
    subsume the old force=auto rewrite cells — same execution when the
    transformation applies — and exercise the fallback ladder when it
    refuses. *)
val all_candidates : candidate list

(** Build a B-tree on every column of every table — the index axis. *)
val index_everything : Core.db -> unit

type verdict =
  | Agree
  | Refused of string  (** transformation declined; not a discrepancy *)
  | Mismatch of { expected : Relalg.Relation.t; got : Relalg.Relation.t }
  | Failed of string  (** planning / verification / runtime error *)

type outcome = { candidate : candidate; verdict : verdict }

type result = {
  reference : (Relalg.Relation.t, string) Stdlib.result;
  outcomes : outcome list;  (** empty when the reference itself failed *)
}

(** NULL-aware comparison: multiset when the query fixes multiplicities
    (DISTINCT / GROUP BY / aggregates), set otherwise (§5.4 duplicate
    residue, see DESIGN.md); under ORDER BY the candidate's delivered
    order must respect the sort keys. *)
val results_agree :
  q:Sql.Ast.query ->
  reference:Relalg.Relation.t ->
  got:Relalg.Relation.t ->
  bool

val run_reference : Repro.case -> (Relalg.Relation.t, string) Stdlib.result

(** [check] additionally type-checks every lowered physical plan
    ({!Analysis.Plan_check} via [Core.run ~check]) in every cell; a
    violation becomes a [Failed] cell. *)
val run_case : ?candidates:candidate list -> ?check:bool -> Repro.case -> result

(** The outcomes that count as bugs (mismatches and failures). *)
val discrepancies : result -> outcome list

(** One line per disagreeing cell; [[]] means every cell agreed or
    refused. *)
val describe : result -> string list
