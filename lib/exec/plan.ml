(* Physical plans: the tree the planner hands to the executor.

   Plans exist only for canonical (transformed) queries and the temp-table
   definitions of NEST-JA2; nested predicates never reach this layer.  Join
   conditions are (left column, op, right column) triples; only equality
   conditions may serve as sort-merge keys.  The executor compiles column
   references to positions against each node's output schema, so plans stay
   printable (EXPLAIN) while execution works on arrays. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Catalog = Storage.Catalog
open Sql.Ast

type join_method = Nested_loop | Sort_merge | Index_nl | Hash

type join_kind = Inner | Left_outer

type agg_item = { fn : agg; out_name : string }

(* [(value, inclusive)] endpoint of an index range probe. *)
type bound = Value.t * bool

type node =
  | Scan of string
  | Index_scan of {
      table : string; (* base table carrying the B-tree *)
      alias : string; (* output provenance; equals [table] when unaliased *)
      column : string; (* indexed column, resolved on the table's schema *)
      lo : bound option; (* missing bound = unbounded on that side *)
      hi : bound option; (* lo = hi = Some (v, true) is an equality probe *)
    }
  | Rename of string * node
      (* re-tag every output column's provenance: an aliased scan *)
  | Filter of predicate list * node (* Cmp with Col/Lit operands only *)
  | Project of col_ref list * node
  | Distinct of node
  | Hash_distinct of node (* beyond the paper: no sort, no page I/O *)
  | Sort of col_ref list * node
  | Join of {
      method_ : join_method;
      kind : join_kind;
      cond : (col_ref * cmp * col_ref) list;
      residual : predicate list;
      left : node;
      right : node;
    }
  | Group_agg of group_agg
  | Hash_group_agg of group_agg (* beyond the paper: unsorted input *)
  | Band_agg of {
      kind : join_kind;
      cond : (col_ref * cmp * col_ref) list; (* one band, the rest equalities *)
      group_by : col_ref list; (* left columns, every left join column *)
      aggs : agg_item list; (* over right columns *)
      left : node;
      right : node;
    }
      (* beyond the paper: GROUP BY over a band join, no join rows *)

and group_agg = { group_by : col_ref list; aggs : agg_item list; input : node }

exception Plan_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Plan_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Schema computation                                                  *)
(* ------------------------------------------------------------------ *)

let find_col schema (c : col_ref) =
  match c.table with
  | Some rel -> Schema.find schema ~rel c.column
  | None -> Schema.find schema c.column

let agg_output_type schema (a : agg) : Value.ty =
  match a with
  | Count_star | Count _ -> Value.Tint
  | Avg _ -> Value.Tfloat
  | Max c | Min c | Sum c ->
      (Schema.column schema (find_col schema c)).ty

let rec output_schema (catalog : Catalog.t) (node : node) : Schema.t =
  match node with
  | Scan name -> Schema.rename_rel (Catalog.schema catalog name) name
  | Index_scan { table; alias; _ } ->
      Schema.rename_rel (Catalog.schema catalog table) alias
  | Rename (alias, input) -> Schema.rename_rel (output_schema catalog input) alias
  | Filter (_, input) -> output_schema catalog input
  | Project (cols, input) ->
      let s = output_schema catalog input in
      Schema.project s (List.map (find_col s) cols)
  | Distinct input | Hash_distinct input | Sort (_, input) ->
      output_schema catalog input
  | Join { left; right; _ } ->
      Schema.append (output_schema catalog left) (output_schema catalog right)
  | Group_agg { group_by; aggs; input } | Hash_group_agg { group_by; aggs; input }
    ->
      grouped_schema (output_schema catalog input) ~group_by ~aggs
  | Band_agg { group_by; aggs; left; right; _ } ->
      let joined =
        Schema.append (output_schema catalog left) (output_schema catalog right)
      in
      grouped_schema joined ~group_by ~aggs

(* Group columns then one column per aggregate, over input schema [s]. *)
and grouped_schema s ~group_by ~aggs =
  let group_cols =
    List.map (fun c -> Schema.column s (find_col s c)) group_by
  in
  let agg_cols =
    List.map
      (fun { fn; out_name } ->
        { Schema.rel = "agg"; name = out_name; ty = agg_output_type s fn })
      aggs
  in
  Schema.make (group_cols @ agg_cols)

(* ------------------------------------------------------------------ *)
(* Predicate compilation                                               *)
(* ------------------------------------------------------------------ *)

let compile_scalar schema = function
  | Lit v -> fun (_ : Row.t) -> v
  | Col c ->
      let i = find_col schema c in
      fun row -> Row.get row i

let compile_predicate schema (p : predicate) : Row.t -> Truth.t =
  match p with
  | Cmp (a, op, b) ->
      let fa = compile_scalar schema a and fb = compile_scalar schema b in
      fun row -> Eval.cmp_values op (fa row) (fb row)
  | Cmp_outer _ -> errf "outer-join predicate must be a join condition"
  | Cmp_subq _ | In_subq _ | Not_in_subq _ | Exists _ | Not_exists _
  | Quant _ ->
      errf "nested predicate reached the physical planner"

let compile_conjunction schema preds : Row.t -> Truth.t =
  let compiled = List.map (compile_predicate schema) preds in
  fun row -> Truth.conjunction (List.map (fun f -> f row) compiled)

(* ------------------------------------------------------------------ *)
(* Join compilation (shared by both engines)                           *)
(* ------------------------------------------------------------------ *)

(* Column references, null-safety flags and residual predicates compile
   identically whichever engine runs the join; these helpers take the
   already-built input schemas so the tuple and vectorized executors can
   share every semantic decision. *)

(* Split an equi-joinable condition list: equality conditions become keys
   (with their [<=>] null-safety flags), the rest fold into the residual.
   Returns [(left_key, right_key, null_safe, residual_fn, joined_schema)].
   @raise Plan_error when no equality condition exists. *)
let equi_join_parts ~method_name (lschema : Schema.t) (rschema : Schema.t)
    ~cond ~residual =
  let eq_cond, rest =
    List.partition (fun (_, op, _) -> op = Eq || op = Eq_null) cond
  in
  if eq_cond = [] then
    errf "%s join requires at least one equality condition" method_name;
  let null_safe = List.map (fun (_, op, _) -> op = Eq_null) eq_cond in
  let left_key = List.map (fun (lc, _, _) -> find_col lschema lc) eq_cond in
  let right_key = List.map (fun (_, _, rc) -> find_col rschema rc) eq_cond in
  let joined_schema = Schema.append lschema rschema in
  let rest_fns =
    List.map
      (fun (lc, op, rc) ->
        let li = find_col lschema lc and ri = find_col rschema rc in
        fun l r -> Eval.cmp_values op (Row.get l li) (Row.get r ri))
      rest
  in
  (* No residual function at all when every condition became a key: the
     executors' pure-equi fast paths must not pay per-match row
     materialization for an always-true check. *)
  let residual_opt =
    if rest = [] && residual = [] then None
    else
      let residual_fn = compile_conjunction joined_schema residual in
      Some
        (fun l r ->
          Truth.and_
            (Truth.conjunction (List.map (fun f -> f l r) rest_fns))
            (residual_fn (Row.append l r)))
  in
  (left_key, right_key, null_safe, residual_opt, joined_schema)

(* An IndexScan streams a B-tree probe: O(height) page reads down to the
   start leaf, then a leaf walk with data pages fetched through the pool —
   output arrives in key order (the leaf level is sorted). *)
let index_scan catalog ~table ~alias ~column ~lo ~hi : Iterator.t =
  let heap_schema = Catalog.schema catalog table in
  let key_col =
    match Schema.find_opt heap_schema column with
    | Some i -> i
    | None -> errf "index scan: no column %s in %s" column table
  in
  let index =
    match Catalog.index_on catalog table ~key_col with
    | Some idx -> idx
    | None -> errf "no index on %s.%s for the index scan" table column
  in
  let next = Storage.Btree.range index ?lo ?hi () in
  { Iterator.schema = Schema.rename_rel heap_schema alias; next }

(* Right side of an index join: a base-table scan with an index on the
   single equality condition's column. *)
let index_nl_join catalog ~outer_join ~cond ~residual ~right
    (lit : Iterator.t) : Iterator.t =
  let name, rschema =
    match right with
    | Scan name -> (name, Schema.rename_rel (Catalog.schema catalog name) name)
    | Rename (alias, Scan name) ->
        (name, Schema.rename_rel (Catalog.schema catalog name) alias)
    | _ -> errf "index join requires a base-table scan on the right"
  in
  let lc, rc =
    match cond with
    | [ (lc, Eq, rc) ] -> (lc, rc)
    | [ (_, Eq_null, _) ] ->
        (* NEST-JA2's null-safe join-back must not be indexed: the B-tree
           stores no NULL keys, so a [<=>] probe would silently drop the
           NULL group instead of matching it. *)
        errf
          "index join cannot implement a null-safe (<=>) condition: NULL \
           keys are not in the index"
    | _ -> errf "index join requires exactly one equality condition"
  in
  let key_col = find_col rschema rc in
  let index =
    match Catalog.index_on catalog name ~key_col with
    | Some idx -> idx
    | None -> errf "no index on %s for the join column" name
  in
  let left_key = find_col lit.Iterator.schema lc in
  let joined_schema = Schema.append lit.Iterator.schema rschema in
  let residual_fn = compile_conjunction joined_schema residual in
  let residual l r = residual_fn (Row.append l r) in
  let it =
    Iterator.index_nested_loop_join ~outer_join ~residual ~left_key ~index
      ~right_schema:rschema lit
  in
  { it with Iterator.schema = joined_schema }

(* Tuple nested loops: the inner side must be stored so it can be
   re-scanned; scans use the stored heap, other subtrees are materialized
   first via [right_iter] (their pages written and the writes counted). *)
let nested_loop_join ?heaps catalog ~outer_join ~cond ~residual ~right
    ~(right_iter : unit -> Iterator.t) (lit : Iterator.t) : Iterator.t =
  let pager = Catalog.pager catalog in
  let right_heap, rschema, materialized =
    match right with
    | Scan name ->
        let heap = Catalog.heap catalog name in
        (heap, Schema.rename_rel (Storage.Heap_file.schema heap) name, false)
    | Rename (alias, Scan name) ->
        let heap = Catalog.heap catalog name in
        (heap, Schema.rename_rel (Storage.Heap_file.schema heap) alias, false)
    | _ ->
        let heap = Iterator.materialize pager (right_iter ()) in
        (heap, Storage.Heap_file.schema heap, true)
  in
  let joined_schema = Schema.append lit.Iterator.schema rschema in
  let cond_fns =
    List.map
      (fun (lc, op, rc) ->
        let li = find_col lit.Iterator.schema lc and ri = find_col rschema rc in
        fun l r -> Eval.cmp_values op (Row.get l li) (Row.get r ri))
      cond
  in
  let residual_fn = compile_conjunction joined_schema residual in
  let theta l r =
    Truth.and_
      (Truth.conjunction (List.map (fun f -> f l r) cond_fns))
      (residual_fn (Row.append l r))
  in
  let it = Iterator.nested_loop_join ~outer_join ~theta lit right_heap in
  let it =
    if materialized then Iterator.delete_when_drained ?heaps right_heap it
    else it
  in
  { it with Iterator.schema = joined_schema }

(* Group keys and aggregate specs against the input schema. *)
let group_agg_parts (ischema : Schema.t) ~group_by ~aggs =
  let group_key = List.map (find_col ischema) group_by in
  let agg_specs =
    List.map
      (fun { fn; _ } ->
        { Iterator.fn; arg = Option.map (find_col ischema) (agg_arg fn) })
      aggs
  in
  (group_key, agg_specs)

(* A band aggregate's conditions split into its equality segment and its
   one band comparison, in condition order.
   @raise Plan_error unless exactly one condition is [<], [<=], [>] or
   [>=] and every other one is an equality. *)
let band_split cond =
  let eqs, bands =
    List.partition (fun (_, op, _) -> op = Eq || op = Eq_null) cond
  in
  match bands with
  | [ ((_, (Lt | Le | Gt | Ge), _) as band) ] -> (eqs, band)
  | _ ->
      errf
        "band aggregate needs exactly one <, <=, > or >= condition beside \
         its equalities"

(* Positions for {!Iterator.band_agg}: equality and band columns, group
   keys on the left; aggregate arguments on the right. *)
let band_parts (lschema : Schema.t) (rschema : Schema.t) ~cond ~group_by ~aggs
    =
  let eqs, (bl, op, br) = band_split cond in
  let group_key = List.map (find_col lschema) group_by in
  let left_col c =
    let i = find_col lschema c in
    if not (List.mem i group_key) then
      errf "band aggregate: join column %a is not a group key" Sql.Pp.pp_col c;
    i
  in
  let eq =
    List.map
      (fun (lc, op, rc) -> (left_col lc, find_col rschema rc, op = Eq_null))
      eqs
  in
  let agg_specs =
    List.map
      (fun { fn; _ } ->
        let arg = Option.map (find_col rschema) (agg_arg fn) in
        (match (fn, arg) with
        | (Sum _ | Avg _), Some i
          when (Schema.column rschema i).ty <> Value.Tint ->
            errf "band aggregate: %a over %s; band sums take Int only"
              Sql.Pp.pp_agg fn
              (Value.type_name (Schema.column rschema i).ty)
        | _ -> ());
        { Iterator.fn; arg })
      aggs
  in
  (eq, (left_col bl, op, find_col rschema br), group_key, agg_specs)

(* Does [node] emit its rows ordered on [cols] as a leading key?  Stored
   relations carry their order in the catalog, a [Sort] its key; a filter
   keeps its input's order. *)
let rec emits_in_order catalog node (cols : col_ref list) =
  let leads schema positions =
    match List.map (find_col schema) cols with
    | ps ->
        let n = List.length ps in
        n <= List.length positions
        && List.equal Int.equal ps (List.filteri (fun i _ -> i < n) positions)
    | exception (Schema.Ambiguous _ | Schema.Not_found_column _) -> false
  in
  match node with
  | Scan name | Rename (_, Scan name) -> (
      match Catalog.sorted_on catalog name with
      | Some positions -> leads (output_schema catalog node) positions
      | None -> false)
  | Sort (keys, input) ->
      let schema = output_schema catalog input in
      leads schema (List.map (find_col schema) keys)
  | Filter (_, input) -> emits_in_order catalog input cols
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Which executor runs a plan.  [Tuple] is the Volcano engine — the default
   and the oracle's reference; [Vectorized] pulls column-major batches
   through [Vec], falling back to the tuple operators (through adapters)
   for sorts and non-hash joins. *)
type engine = Tuple | Vectorized

let engine_name = function Tuple -> "tuple" | Vectorized -> "vectorized"

let engine_of_string = function
  | "tuple" -> Some Tuple
  | "vectorized" | "vec" -> Some Vectorized
  | _ -> None

(* An observer intercepts the construction of every operator: it receives
   the plan node and a thunk that builds its iterator (including the eager
   work of sorts and hash builds), and returns the iterator to use — usually
   the built one wrapped with instrumentation.  [Explain] uses this to
   attach per-operator metrics and trace events without the executor knowing
   about either.  [vec_observer] is the same protocol for the vectorized
   engine. *)
type observer = node -> (on_pass:(unit -> unit) -> Iterator.t) -> Iterator.t
type vec_observer = node -> (on_pass:(unit -> unit) -> Vec.t) -> Vec.t

(* A band aggregate over its executed left side: a stored inner table is
   re-scanned in place, any other inner subtree streamed through
   [right_iter] (the operator materializes it once if the left side needs
   several chunks). *)
let band_agg ?heaps ~on_pass catalog ~kind ~cond ~group_by ~aggs ~left ~right
    ~right_iter (lit : Iterator.t) : Iterator.t =
  let rschema = output_schema catalog right in
  let inner =
    match right with
    | Scan name | Rename (_, Scan name) ->
        Iterator.Stored (Catalog.heap catalog name)
    | _ -> Iterator.Streamed right_iter
  in
  let eq, band, group_key, agg_specs =
    band_parts lit.schema rschema ~cond ~group_by ~aggs
  in
  Iterator.band_agg ?heaps (Catalog.pager catalog)
    ~outer_join:(kind = Left_outer) ~eq ~band ~group_key ~aggs:agg_specs
    ~schema:(grouped_schema (Schema.append lit.schema rschema) ~group_by ~aggs)
    ~left_sorted:(emits_in_order catalog left group_by)
    ~on_pass ~inner lit

let rec execute ?observe ?heaps (catalog : Catalog.t) (node : node) :
    Iterator.t =
  match observe with
  | None -> execute_node ?observe ?heaps ~on_pass:ignore catalog node
  | Some f ->
      f node (fun ~on_pass ->
          execute_node ?observe ?heaps ~on_pass catalog node)

and execute_node ?observe ?heaps ~on_pass (catalog : Catalog.t) (node : node) :
    Iterator.t =
  let pager = Catalog.pager catalog in
  match node with
  | Scan name ->
      let it = Iterator.scan (Catalog.heap catalog name) in
      (* Present stored columns under the table's name so plan-level
         references [name.col] resolve. *)
      { it with schema = Schema.rename_rel it.schema name }
  | Index_scan { table; alias; column; lo; hi } ->
      index_scan catalog ~table ~alias ~column ~lo ~hi
  | Rename (alias, input) ->
      let it = execute ?observe ?heaps catalog input in
      { it with schema = Schema.rename_rel it.schema alias }
  | Filter (preds, input) ->
      let it = execute ?observe ?heaps catalog input in
      Iterator.filter ~pred:(compile_conjunction it.schema preds) it
  | Project (cols, input) ->
      let it = execute ?observe ?heaps catalog input in
      Iterator.project ~idxs:(List.map (find_col it.schema) cols) it
  | Distinct input ->
      Iterator.distinct ?heaps pager (execute ?observe ?heaps catalog input)
  | Hash_distinct input ->
      Iterator.hash_distinct (execute ?observe ?heaps catalog input)
  | Sort (cols, input) ->
      let it = execute ?observe ?heaps catalog input in
      Iterator.sort ?heaps pager ~key:(List.map (find_col it.schema) cols) it
  | Join { method_; kind; cond; residual; left; right } -> (
      let lit = execute ?observe ?heaps catalog left in
      let outer_join = kind = Left_outer in
      match method_ with
      | Index_nl -> index_nl_join catalog ~outer_join ~cond ~residual ~right lit
      | Nested_loop ->
          nested_loop_join ?heaps catalog ~outer_join ~cond ~residual ~right
            ~right_iter:(fun () -> execute ?observe ?heaps catalog right)
            lit
      | Hash ->
          let rit = execute ?observe ?heaps catalog right in
          let left_key, right_key, null_safe, residual, joined_schema =
            equi_join_parts ~method_name:"hash" lit.schema rit.schema ~cond
              ~residual
          in
          let it =
            Iterator.hash_join ~outer_join ~null_safe ?residual ~left_key
              ~right_key lit rit
          in
          { it with schema = joined_schema }
      | Sort_merge ->
          let rit = execute ?observe ?heaps catalog right in
          let left_key, right_key, null_safe, residual, joined_schema =
            equi_join_parts ~method_name:"sort-merge" lit.schema rit.schema
              ~cond ~residual
          in
          let it =
            Iterator.merge_join ~outer_join ~null_safe ?residual ~left_key
              ~right_key lit rit
          in
          { it with schema = joined_schema })
  | Group_agg { group_by; aggs; input } | Hash_group_agg { group_by; aggs; input }
    ->
      let it = execute ?observe ?heaps catalog input in
      let group_key, agg_specs = group_agg_parts it.schema ~group_by ~aggs in
      let schema = output_schema catalog node in
      let agg_op =
        match node with
        | Hash_group_agg _ -> Iterator.hash_group_agg
        | _ -> Iterator.group_agg_sorted
      in
      agg_op ~group_key ~aggs:agg_specs ~schema it
  | Band_agg { kind; cond; group_by; aggs; left; right } ->
      band_agg ?heaps ~on_pass catalog ~kind ~cond ~group_by ~aggs ~left ~right
        ~right_iter:(fun () -> execute ?observe ?heaps catalog right)
        (execute ?observe ?heaps catalog left)

(* The vectorized executor: hot operators (scan, filter, project, hash
   distinct/join/group) run batch-at-a-time through [Vec]; sort-based
   operators and the nested-loop family run the tuple implementation
   between adapters, so any plan executes under either engine. *)
let rec execute_vec ?observe ?heaps (catalog : Catalog.t) (node : node) : Vec.t =
  match observe with
  | None -> execute_vec_node ?observe ?heaps ~on_pass:ignore catalog node
  | Some f ->
      f node (fun ~on_pass ->
          execute_vec_node ?observe ?heaps ~on_pass catalog node)

and execute_vec_node ?observe ?heaps ~on_pass (catalog : Catalog.t)
    (node : node) : Vec.t =
  let pager = Catalog.pager catalog in
  match node with
  | Scan name ->
      let v = Vec.scan (Catalog.heap catalog name) in
      Vec.with_schema v (Schema.rename_rel v.Vec.schema name)
  | Index_scan { table; alias; column; lo; hi } ->
      Vec.of_tuple (index_scan catalog ~table ~alias ~column ~lo ~hi)
  | Rename (alias, input) ->
      let v = execute_vec ?observe ?heaps catalog input in
      Vec.with_schema v (Schema.rename_rel v.Vec.schema alias)
  | Filter (preds, input) ->
      let v = execute_vec ?observe ?heaps catalog input in
      (* Vec refuses a non-flat predicate with [Invalid_argument]; surface
         it as the same [Plan_error] the tuple engine raises. *)
      let pred =
        try Vec.compile_conjunction v.Vec.schema preds
        with Invalid_argument why -> errf "%s" why
      in
      Vec.filter ~pred v
  | Project (cols, Join { method_ = Hash; kind; cond; residual; left; right })
    when observe = None ->
      (* Late materialization: fuse the projection into the hash join's
         gather so dropped columns are never copied.  Skipped under
         [observe] to keep per-node EXPLAIN ANALYZE accounting intact. *)
      let lv = execute_vec ?observe ?heaps catalog left in
      let rv = execute_vec ?observe ?heaps catalog right in
      let left_key, right_key, null_safe, residual, joined_schema =
        equi_join_parts ~method_name:"hash" lv.Vec.schema rv.Vec.schema ~cond
          ~residual
      in
      let idxs = List.map (find_col joined_schema) cols in
      Vec.hash_join ~outer_join:(kind = Left_outer) ~null_safe ?residual
        ~project:idxs ~left_key ~right_key lv rv
  | Project (cols, input) ->
      let v = execute_vec ?observe ?heaps catalog input in
      let idxs = List.map (find_col v.Vec.schema) cols in
      Vec.project
        ~schema:(Schema.project v.Vec.schema idxs)
        ~positions:(Array.of_list idxs) v
  | Distinct input ->
      Vec.of_tuple
        (Iterator.distinct ?heaps pager
           (Vec.to_tuple (execute_vec ?observe ?heaps catalog input)))
  | Hash_distinct input ->
      Vec.hash_distinct (execute_vec ?observe ?heaps catalog input)
  | Sort (cols, input) ->
      let v = execute_vec ?observe ?heaps catalog input in
      Vec.of_tuple
        (Iterator.sort ?heaps pager
           ~key:(List.map (find_col v.Vec.schema) cols)
           (Vec.to_tuple v))
  | Join { method_; kind; cond; residual; left; right } -> (
      let lv = execute_vec ?observe ?heaps catalog left in
      let outer_join = kind = Left_outer in
      match method_ with
      | Index_nl ->
          Vec.of_tuple
            (index_nl_join catalog ~outer_join ~cond ~residual ~right
               (Vec.to_tuple lv))
      | Nested_loop ->
          Vec.of_tuple
            (nested_loop_join ?heaps catalog ~outer_join ~cond ~residual ~right
               ~right_iter:(fun () ->
                 Vec.to_tuple (execute_vec ?observe ?heaps catalog right))
               (Vec.to_tuple lv))
      | Hash ->
          let rv = execute_vec ?observe ?heaps catalog right in
          let left_key, right_key, null_safe, residual, _joined_schema =
            equi_join_parts ~method_name:"hash" lv.Vec.schema rv.Vec.schema
              ~cond ~residual
          in
          Vec.hash_join ~outer_join ~null_safe ?residual ~left_key ~right_key
            lv rv
      | Sort_merge ->
          let rv = execute_vec ?observe ?heaps catalog right in
          let left_key, right_key, null_safe, residual, joined_schema =
            equi_join_parts ~method_name:"sort-merge" lv.Vec.schema
              rv.Vec.schema ~cond ~residual
          in
          let it =
            Iterator.merge_join ~outer_join ~null_safe ?residual ~left_key
              ~right_key (Vec.to_tuple lv) (Vec.to_tuple rv)
          in
          Vec.of_tuple { it with Iterator.schema = joined_schema })
  | Group_agg { group_by; aggs; input } ->
      let v = execute_vec ?observe ?heaps catalog input in
      let group_key, agg_specs = group_agg_parts v.Vec.schema ~group_by ~aggs in
      let schema = output_schema catalog node in
      Vec.of_tuple
        (Iterator.group_agg_sorted ~group_key ~aggs:agg_specs ~schema
           (Vec.to_tuple v))
  | Hash_group_agg { group_by; aggs; input } ->
      let v = execute_vec ?observe ?heaps catalog input in
      let group_key, agg_specs = group_agg_parts v.Vec.schema ~group_by ~aggs in
      let schema = output_schema catalog node in
      Vec.hash_group_agg ~group_key ~aggs:agg_specs ~schema v
  | Band_agg { kind; cond; group_by; aggs; left; right } ->
      Vec.of_tuple
        (band_agg ?heaps ~on_pass catalog ~kind ~cond ~group_by ~aggs ~left
           ~right
           ~right_iter:(fun () ->
             Vec.to_tuple (execute_vec ?observe ?heaps catalog right))
           (Vec.to_tuple (execute_vec ?observe ?heaps catalog left)))

(* A run owns the heaps its operators create: each is freed when drained,
   and whatever an operator left undrained (the sorted inner of a merge
   join whose outer ran out first) is freed when the run ends or fails. *)
let with_heaps f =
  let heaps = Iterator.heaps () in
  Fun.protect ~finally:(fun () -> Iterator.release_all heaps) (fun () -> f heaps)

let run ?observe catalog node : Relalg.Relation.t =
  with_heaps (fun heaps ->
      Iterator.to_relation (execute ?observe ~heaps catalog node))

let run_vec ?observe catalog node : Relalg.Relation.t =
  with_heaps (fun heaps ->
      let v = execute_vec ?observe ~heaps catalog node in
      Relalg.Relation.make v.Vec.schema (Vec.to_rows v))

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let join_method_name = function
  | Nested_loop -> "nested-loop"
  | Sort_merge -> "sort-merge"
  | Index_nl -> "index-nested-loop"
  | Hash -> "hash"

let join_kind_name = function Inner -> "inner" | Left_outer -> "left-outer"

(* One-line operator description, without children — the unit EXPLAIN and
   the [Explain] annotators build their renderings from. *)
let pp_bounds ppf (column, lo, hi) =
  match (lo, hi) with
  | Some (v, true), Some (v', true) when Value.compare v v' = 0 ->
      Fmt.pf ppf "%s = %a" column Value.pp v
  | lo, hi ->
      let side op ppf = function
        | None -> ()
        | Some (v, incl) ->
            Fmt.pf ppf " %s%s %a" op (if incl then "=" else "") Value.pp v
      in
      Fmt.pf ppf "%s%a%a" column (side ">") lo (side "<") hi

let pp_cols = Fmt.(list ~sep:(any ", ") Sql.Pp.pp_col)

let pp_cond ppf (l, op, r) =
  Fmt.pf ppf "%a %s %a" Sql.Pp.pp_col l (cmp_name op) Sql.Pp.pp_col r

let pp_aggs =
  Fmt.(
    list ~sep:(any ", ") (fun ppf { fn; out_name } ->
        Fmt.pf ppf "%a AS %s" Sql.Pp.pp_agg fn out_name))

let label node =
  match node with
  | Scan name -> "Scan " ^ name
  | Index_scan { table; alias; column; lo; hi } ->
      Fmt.str "IndexScan %s%s on %a" table
        (if alias = table then "" else " as " ^ alias)
        pp_bounds (column, lo, hi)
  | Rename (alias, _) -> "Rename as " ^ alias
  | Filter (preds, _) ->
      Fmt.str "Filter %a"
        Fmt.(list ~sep:(any " AND ") Sql.Pp.pp_predicate)
        preds
  | Project (cols, _) ->
      Fmt.str "Project %a" Fmt.(list ~sep:(any ", ") Sql.Pp.pp_col) cols
  | Distinct _ -> "Distinct"
  | Hash_distinct _ -> "HashDistinct"
  | Sort (cols, _) -> Fmt.str "Sort by %a" pp_cols cols
  | Join { method_; kind; cond; residual; _ } ->
      Fmt.str "%s %s join on %a%a"
        (join_method_name method_)
        (join_kind_name kind)
        Fmt.(list ~sep:(any " AND ") pp_cond)
        cond
        Fmt.(
          if residual = [] then any ""
          else fun ppf () ->
            Fmt.pf ppf " residual %a"
              (list ~sep:(any " AND ") Sql.Pp.pp_predicate)
              residual)
        ()
  | Group_agg { group_by; aggs; _ } | Hash_group_agg { group_by; aggs; _ } ->
      let name =
        match node with Hash_group_agg _ -> "HashGroupAgg" | _ -> "GroupAgg"
      in
      Fmt.str "%s by [%a] computing [%a]" name pp_cols group_by pp_aggs aggs
  | Band_agg { kind; cond; group_by; aggs; _ } ->
      let eqs, band = band_split cond in
      Fmt.str "BandAgg by [%a] on %a%a%s computing [%a]" pp_cols group_by
        pp_cond band
        Fmt.(
          if eqs = [] then any ""
          else fun ppf () ->
            Fmt.pf ppf " segment %a" (list ~sep:(any " AND ") pp_cond) eqs)
        ()
        (match kind with Inner -> "" | Left_outer -> " left-outer")
        pp_aggs aggs

let children = function
  | Scan _ | Index_scan _ -> []
  | Rename (_, input)
  | Filter (_, input)
  | Project (_, input)
  | Distinct input
  | Hash_distinct input
  | Sort (_, input) ->
      [ input ]
  | Join { left; right; _ } | Band_agg { left; right; _ } -> [ left; right ]
  | Group_agg { input; _ } | Hash_group_agg { input; _ } -> [ input ]

let rec pp ?(indent = 0) ppf node =
  Fmt.pf ppf "%s%s@." (String.make (indent * 2) ' ') (label node);
  List.iter (pp ~indent:(indent + 1) ppf) (children node)

let to_string node = Fmt.str "%a" (pp ~indent:0) node
