(** Physical plans for canonical queries and NEST-JA2 temp definitions.

    Column references are compiled to positions against each node's output
    schema at execution time, so plans remain printable (EXPLAIN). *)

type join_method = Nested_loop | Sort_merge | Index_nl | Hash

type join_kind = Inner | Left_outer

type agg_item = { fn : Sql.Ast.agg; out_name : string }

(** [(value, inclusive)] endpoint of an index range probe. *)
type bound = Relalg.Value.t * bool

type node =
  | Scan of string
  | Index_scan of {
      table : string;  (** base table carrying the B-tree *)
      alias : string;  (** output provenance; equals [table] when unaliased *)
      column : string;  (** indexed column on the table's schema *)
      lo : bound option;  (** missing bound = unbounded on that side *)
      hi : bound option;  (** lo = hi = Some (v, true) is an equality probe *)
    }
      (** stream a B-tree probe in key order: O(height) descent, leaf
          walk, data pages through the pool *)
  | Rename of string * node
      (** re-tag output provenance: an aliased scan *)
  | Filter of Sql.Ast.predicate list * node
      (** conjunction; [Cmp] with Col/Lit operands only *)
  | Project of Sql.Ast.col_ref list * node
  | Distinct of node
  | Hash_distinct of node
      (** beyond the paper: hash dedup, no sort, no page I/O *)
  | Sort of Sql.Ast.col_ref list * node
  | Join of {
      method_ : join_method;
      kind : join_kind;
      cond : (Sql.Ast.col_ref * Sql.Ast.cmp * Sql.Ast.col_ref) list;
      residual : Sql.Ast.predicate list;
      left : node;
      right : node;
    }
  | Group_agg of group_agg
  | Hash_group_agg of group_agg
      (** beyond the paper: hash aggregation over unsorted input *)
  | Band_agg of {
      kind : join_kind;
      cond : (Sql.Ast.col_ref * Sql.Ast.cmp * Sql.Ast.col_ref) list;
          (** exactly one [<] [<=] [>] [>=] condition, the rest equalities *)
      group_by : Sql.Ast.col_ref list;
          (** left columns, including every left column of [cond] *)
      aggs : agg_item list;  (** over right columns; SUM/AVG over Int *)
      left : node;
      right : node;
    }
      (** beyond the paper: [GROUP BY group_by] over [left ⋈ right] without
          producing the join's rows ({!Iterator.band_agg}); output in
          group-key order *)

and group_agg = {
  group_by : Sql.Ast.col_ref list;
  aggs : agg_item list;
  input : node;
}

exception Plan_error of string

(** Schema the node produces.  @raise Plan_error / Catalog.Unknown_table *)
val output_schema : Storage.Catalog.t -> node -> Relalg.Schema.t

(** Which executor runs a plan: [Tuple] is the Volcano engine — the default
    and the differential oracle's reference; [Vectorized] pulls column-major
    {!Batch.t} chunks through {!Vec}, falling back to the tuple operators
    (through adapters) for sorts and non-hash joins, so any plan executes
    under either engine with identical results. *)
type engine = Tuple | Vectorized

val engine_name : engine -> string

(** Parses ["tuple"], ["vectorized"] (or ["vec"]). *)
val engine_of_string : string -> engine option

(** An observer intercepts every operator's construction: it receives the
    plan node and a thunk building its iterator (including eager work —
    sorts, materializations, hash builds) and returns the iterator to use,
    usually the built one wrapped with instrumentation.  The thunk takes
    the operator's [on_pass] callback, run once per read of a band
    aggregate's inner (other operators never call it).  {!Explain} supplies
    one to collect per-operator {!Metrics} without the executor knowing.
    [vec_observer] is the same protocol for the vectorized engine. *)
type observer = node -> (on_pass:(unit -> unit) -> Iterator.t) -> Iterator.t

type vec_observer = node -> (on_pass:(unit -> unit) -> Vec.t) -> Vec.t

(** [band_split cond]: a band aggregate's equality conditions and its one
    band condition.  @raise Plan_error on any other shape. *)
val band_split :
  (Sql.Ast.col_ref * Sql.Ast.cmp * Sql.Ast.col_ref) list ->
  (Sql.Ast.col_ref * Sql.Ast.cmp * Sql.Ast.col_ref) list
  * (Sql.Ast.col_ref * Sql.Ast.cmp * Sql.Ast.col_ref)

(** [emits_in_order catalog node cols]: does [node] provably emit its rows
    ordered on [cols] as a leading key (a stored relation's catalog order,
    a [Sort] key, either under filters)? *)
val emits_in_order :
  Storage.Catalog.t -> node -> Sql.Ast.col_ref list -> bool

(** Execute to an iterator (page traffic through the catalog's pager).
    Sort-merge joins require plan-inserted [Sort]s (or born-sorted inputs);
    [Group_agg] requires input sorted on [group_by] ([Hash_group_agg] does
    not).  [observe] wraps every operator as it is built.
    [heaps] collects the heaps the operators create, for
    {!Iterator.release_all} once the result is consumed; {!run} and
    {!run_vec} do this themselves.
    @raise Plan_error on malformed plans. *)
val execute :
  ?observe:observer ->
  ?heaps:Iterator.heaps ->
  Storage.Catalog.t ->
  node ->
  Iterator.t

(** Execute batch-at-a-time.  Same plan contract and semantics as
    {!execute}; scans, filters, projections and the hash operators run
    vectorized, everything else through tuple adapters. *)
val execute_vec :
  ?observe:vec_observer ->
  ?heaps:Iterator.heaps ->
  Storage.Catalog.t ->
  node ->
  Vec.t

(** [execute] and collect the rows; every heap the run created is
    deleted when it returns or raises. *)
val run : ?observe:observer -> Storage.Catalog.t -> node -> Relalg.Relation.t

(** [execute_vec] and collect the rows; heaps as in {!run}. *)
val run_vec :
  ?observe:vec_observer -> Storage.Catalog.t -> node -> Relalg.Relation.t

(** One-line operator description, without children. *)
val label : node -> string

(** Immediate sub-plans, in display order ([Join]: left then right). *)
val children : node -> node list

(** Indented EXPLAIN rendering: one {!label} line per operator. *)
val pp : ?indent:int -> Format.formatter -> node -> unit

val to_string : node -> string
