(* Volcano-style physical operators.

   Every operator is a pull iterator carrying its output schema.  Operators
   that touch stored relations do so through the pager, so measured page I/O
   reflects plan structure.  Join methods are the two the paper discusses:
   tuple nested loops (re-scanning the stored inner per outer tuple — cheap
   when the inner fits in the buffer pool, quadratic in I/O when it does
   not) and sort-merge (on equality keys, with many-to-many group handling).
   Both come in inner and left-outer flavours; the left-outer variants are
   the operation §5.2 requires for the COUNT bug fix. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Relation = Relalg.Relation
module Heap_file = Storage.Heap_file
module Pager = Storage.Pager

type t = { schema : Schema.t; next : unit -> Row.t option }

let schema t = t.schema

let to_rows t =
  let rec go acc = match t.next () with
    | Some r -> go (r :: acc)
    | None -> List.rev acc
  in
  go []

let to_relation t = Relation.make t.schema (to_rows t)

let of_rows schema rows =
  let remaining = ref rows in
  let next () =
    match !remaining with
    | [] -> None
    | r :: rest ->
        remaining := rest;
        Some r
  in
  { schema; next }

let of_relation rel = of_rows (Relation.schema rel) (Relation.rows rel)

let scan (heap : Heap_file.t) : t =
  { schema = Heap_file.schema heap; next = Heap_file.scan heap }

let filter ~(pred : Row.t -> Truth.t) (input : t) : t =
  let rec next () =
    match input.next () with
    | None -> None
    | Some r -> (
        match pred r with
        | Truth.True -> Some r
        | Truth.False | Truth.Unknown -> next ())
  in
  { schema = input.schema; next }

let project ~idxs (input : t) : t =
  (* Positions are compiled to an array once; the per-row work is one array
     map, not a list traversal. *)
  let positions = Array.of_list idxs in
  {
    schema = Schema.project input.schema idxs;
    next =
      (fun () ->
        match input.next () with
        | None -> None
        | Some r -> Some (Row.project_positions r positions));
  }

(* Evaluate select-item-shaped scalar expressions; used for constant columns
   if ever needed.  (Projection by positions is the common path.) *)

let materialize pager (input : t) : Heap_file.t =
  let heap = Heap_file.create pager input.schema in
  let rec drain () =
    match input.next () with
    | Some r ->
        Heap_file.append heap r;
        drain ()
    | None -> Heap_file.flush heap
  in
  drain ();
  heap

(* An operator deletes every heap it creates once it is drained, or the
   pages stay on the simulated disk for the life of the database (a
   server's lifetime).  [it] is the last reader of [heap]: the first [None]
   deletes it, and the flag keeps a second pull after [None] (which
   [Vec.of_tuple] makes) from deleting it twice.  A consumer may stop
   before [None] (a merge join whose outer ran out), so the delete is also
   registered with the run's [heaps], which {!release_all} runs at the
   end. *)
type heaps = (unit -> unit) list ref

let heaps () : heaps = ref []

let release_all (heaps : heaps) =
  let pending = !heaps in
  heaps := [];
  List.iter (fun release -> release ()) pending

(* The delete of [heap], at most once, registered with [heaps]. *)
let owned ?(heaps : heaps option) heap =
  let live = ref true in
  let release () =
    if !live then begin
      live := false;
      Heap_file.delete heap
    end
  in
  Option.iter (fun hs -> hs := release :: !hs) heaps;
  release

let delete_when_drained ?heaps heap (it : t) : t =
  let release = owned ?heaps heap in
  let next () =
    match it.next () with
    | Some _ as r -> r
    | None ->
        release ();
        None
  in
  { it with next }

(* External sort; materializes, sorts, scans, and frees the sorted heap
   once drained. *)
let sort ?heaps pager ?(dedup = Storage.External_sort.Keep_duplicates) ~key
    (input : t) : t =
  let heap = materialize pager input in
  let sorted = Storage.External_sort.sort pager ~dedup ~key heap in
  Heap_file.delete heap;
  delete_when_drained ?heaps sorted (scan sorted)

let distinct ?heaps pager (input : t) : t =
  let key = List.init (Schema.arity input.schema) Fun.id in
  sort ?heaps pager ~dedup:Storage.External_sort.Drop_duplicates ~key input

(* Hash-based duplicate elimination (beyond the paper): stream the input,
   holding one copy of each distinct row in memory.  No page I/O and no
   sort; output is in first-occurrence order.  The planner's hybrid mode
   chooses this only when the distinct result is estimated to fit the
   buffer pool; {!distinct} remains the paper-faithful sort-based path. *)
let hash_distinct (input : t) : t =
  (* [Row.Tbl], not the structural Hashtbl: duplicate elimination must use
     the same equality the sort-based path gets from [Value.compare] (Int 1
     = Float 1.0, NULL = NULL). *)
  let seen : unit Row.Tbl.t = Row.Tbl.create 256 in
  let rec next () =
    match input.next () with
    | None -> None
    | Some r ->
        if Row.Tbl.mem seen r then next ()
        else begin
          Row.Tbl.add seen r ();
          Some r
        end
  in
  { schema = input.schema; next }

(* ------------------------------------------------------------------ *)
(* Nested-loop joins                                                   *)
(* ------------------------------------------------------------------ *)

(* Tuple nested loops: the stored inner relation is re-scanned once per
   outer row (buffer pool permitting). *)
let nested_loop_join ?(outer_join = false)
    ~(theta : Row.t -> Row.t -> Truth.t) (left : t) (right : Heap_file.t) : t =
  let right_schema = Heap_file.schema right in
  let pad = Row.nulls (Schema.arity right_schema) in
  let schema = Schema.append left.schema right_schema in
  let current_left = ref None in
  let right_scan = ref (fun () -> None) in
  let matched = ref false in
  let rec next () =
    match !current_left with
    | None -> (
        match left.next () with
        | None -> None
        | Some l ->
            current_left := Some l;
            right_scan := Heap_file.scan right;
            matched := false;
            next ())
    | Some l -> (
        match !right_scan () with
        | Some r -> (
            match theta l r with
            | Truth.True ->
                matched := true;
                Some (Row.append l r)
            | Truth.False | Truth.Unknown -> next ())
        | None ->
            let emit_pad = outer_join && not !matched in
            current_left := None;
            if emit_pad then Some (Row.append l pad) else next ())
  in
  { schema; next }

(* Index nested loops: probe a dense sorted index on the right side's join
   column once per left row — the access path §5.2 warns can tempt a system
   into joining before restricting. *)
let index_nested_loop_join ?(outer_join = false)
    ?(residual : (Row.t -> Row.t -> Truth.t) option) ~left_key
    ~(index : Storage.Btree.t) ~(right_schema : Schema.t) (left : t) : t =
  let pad = Row.nulls (Schema.arity right_schema) in
  let schema = Schema.append left.schema right_schema in
  let residual_ok l r =
    match residual with None -> true | Some f -> Truth.to_bool (f l r)
  in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | r :: rest ->
        pending := rest;
        Some r
    | [] -> (
        match left.next () with
        | None -> None
        | Some l -> (
            let matches =
              List.filter_map
                (fun r ->
                  if residual_ok l r then Some (Row.append l r) else None)
                (Storage.Btree.lookup_eq index (Row.get l left_key))
            in
            match matches with
            | [] -> if outer_join then Some (Row.append l pad) else next ()
            | first :: rest ->
                pending := rest;
                Some first))
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Sort-merge join (equality keys)                                     *)
(* ------------------------------------------------------------------ *)

(* Inputs must already be sorted on their key columns.  Handles
   many-to-many matches by buffering the current right-side key group in
   memory.  [residual] filters joined rows (non-key predicates); with
   [outer_join], a left row whose group yields no residual-qualifying match
   is emitted padded — the same semantics as the nested-loop outer join.
   [null_safe] marks key columns joined with [<=>] rather than [=]: on
   those, NULL matches NULL (Value.compare's sort order already groups
   NULLs, so the merge needs no other change). *)
let merge_join ?(outer_join = false) ?(null_safe : bool list option)
    ?(residual : (Row.t -> Row.t -> Truth.t) option) ~left_key ~right_key
    (left : t) (right : t) : t =
  let right_arity = Schema.arity right.schema in
  let pad = Row.nulls right_arity in
  let schema = Schema.append left.schema right.schema in
  (* Key positions compiled to arrays once; comparisons read the rows in
     place instead of materializing a key list per row (the per-tuple
     allocation that dominated large merge joins). *)
  let lk = Array.of_list left_key and rk = Array.of_list right_key in
  let nk = Array.length lk in
  let cmp_lr l r =
    let rec go i =
      if i >= nk then 0
      else
        let c = Value.compare (Row.get l lk.(i)) (Row.get r rk.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let cmp_ll l l' =
    let rec go i =
      if i >= nk then 0
      else
        let c = Value.compare (Row.get l lk.(i)) (Row.get l' lk.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  (* Keys containing NULL in a *strict* ([=]) column never join (SQL
     semantics): skip such rows on both sides ([outer_join] still pads the
     left ones).  Null-safe ([<=>]) columns keep their NULL rows — they
     group and match like any other value. *)
  let strict =
    match null_safe with
    | None -> Array.make nk true
    | Some flags -> Array.of_list (List.map not flags)
  in
  let key_has_null idxs r =
    let rec go i =
      i < nk
      && ((strict.(i) && Value.is_null (Row.get r idxs.(i))) || go (i + 1))
    in
    go 0
  in
  let residual_ok l r =
    match residual with
    | None -> true
    | Some f -> Truth.to_bool (f l r)
  in
  let right_row = ref (right.next ()) in
  let right_group = ref [] (* current right key group, buffered *) in
  (* Left row whose key the buffered group matches.  The group can be empty
     (no right rows for that key), so the group key is remembered via a left
     representative rather than a member. *)
  let group_of = ref None in
  let pending = ref [] in
  let advance_right_group l =
    (* Load into [right_group] all right rows with l's key; assumes the
       right cursor is positioned at the first row with key >= l's. *)
    right_group := [];
    group_of := Some l;
    let rec loop () =
      match !right_row with
      | Some r when cmp_lr l r = 0 ->
          right_group := r :: !right_group;
          right_row := right.next ();
          loop ()
      | _ -> ()
    in
    loop ();
    right_group := List.rev !right_group
  in
  let rec skip_right_until l =
    match !right_row with
    | Some r when key_has_null rk r || cmp_lr l r > 0 ->
        right_row := right.next ();
        skip_right_until l
    | _ -> ()
  in
  let rec next () =
    match !pending with
    | r :: rest ->
        pending := rest;
        Some r
    | [] -> (
        match left.next () with
        | None -> None
        | Some l ->
            if key_has_null lk l then
              if outer_join then Some (Row.append l pad) else next ()
            else begin
              (match !group_of with
              | Some l0 when cmp_ll l0 l = 0 -> ()
              | _ ->
                  skip_right_until l;
                  (match !right_row with
                  | Some r when cmp_lr l r = 0 -> advance_right_group l
                  | _ ->
                      right_group := [];
                      group_of := Some l));
              let matches =
                List.filter_map
                  (fun r ->
                    if residual_ok l r then Some (Row.append l r) else None)
                  !right_group
              in
              match matches with
              | [] -> if outer_join then Some (Row.append l pad) else next ()
              | first :: rest ->
                  pending := rest;
                  Some first
            end)
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Hash join (beyond the paper)                                        *)
(* ------------------------------------------------------------------ *)

(* Classic in-memory hash join: build a table on the right side, probe per
   left row.  This is the *modern* comparator — it assumes the build side
   fits in memory, an assumption the 1987 cost model never makes, so the
   planner only uses it when forced (see the bench ablation).  NULL keys in
   strict ([=]) columns never match; [null_safe] columns ([<=>]) let NULL
   match NULL, exactly as in {!merge_join}.  [outer_join] pads unmatched
   left rows. *)
let hash_join ?(outer_join = false) ?(null_safe : bool list option)
    ?(residual : (Row.t -> Row.t -> Truth.t) option) ~left_key ~right_key
    (left : t) (right : t) : t =
  let pad = Row.nulls (Schema.arity right.schema) in
  let schema = Schema.append left.schema right.schema in
  let residual_ok l r =
    match residual with None -> true | Some f -> Truth.to_bool (f l r)
  in
  let lk = Array.of_list left_key and rk = Array.of_list right_key in
  let nk = Array.length lk in
  let strict =
    match null_safe with
    | None -> Array.make nk true
    | Some flags -> Array.of_list (List.map not flags)
  in
  (* [Row.Tbl]: semantic key equality/hash (Int/Float unify numerically,
     NULL equals itself) so hash joins agree with the sort-merge path. *)
  let table : Row.t list Row.Tbl.t = Row.Tbl.create 64 in
  let key_null idxs r =
    let rec go i =
      i < nk
      && ((strict.(i) && Value.is_null (Row.get r idxs.(i))) || go (i + 1))
    in
    go 0
  in
  let rec build () =
    match right.next () with
    | None -> ()
    | Some r ->
        if not (key_null rk r) then begin
          let k = Row.project_positions r rk in
          Row.Tbl.replace table k
            (r :: Option.value (Row.Tbl.find_opt table k) ~default:[])
        end;
        build ()
  in
  build ();
  (* Probe with one reused scratch key buffer: a single allocation for the
     whole probe side instead of one key list per left row. *)
  let probe_key = Array.make nk Value.Null in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | r :: rest ->
        pending := rest;
        Some r
    | [] -> (
        match left.next () with
        | None -> None
        | Some l -> (
            let matches =
              if key_null lk l then []
              else begin
                Array.iteri (fun i li -> probe_key.(i) <- Row.get l li) lk;
                List.filter_map
                  (fun r ->
                    if residual_ok l r then Some (Row.append l r) else None)
                  (List.rev
                     (Option.value (Row.Tbl.find_opt table probe_key)
                        ~default:[]))
              end
            in
            match matches with
            | [] -> if outer_join then Some (Row.append l pad) else next ()
            | first :: rest ->
                pending := rest;
                Some first))
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Grouped aggregation                                                 *)
(* ------------------------------------------------------------------ *)

type agg_spec = {
  fn : Sql.Ast.agg; (* which aggregate *)
  arg : int option; (* input column position; None for COUNT-star *)
}

(* Streaming aggregation over input sorted by [group_key]; emits one row per
   group: the group-key values followed by one value per [agg_spec].  When
   [group_key] is empty, emits exactly one (possibly empty-input) row — SQL's
   global-aggregate behaviour. *)
let group_agg_sorted ~group_key ~(aggs : agg_spec list) ~schema (input : t) : t
    =
  let gk = Array.of_list group_key in
  let key_of r = Row.project_positions r gk in
  let finish key members =
    let members = List.rev members in
    let agg_value spec =
      let column =
        match spec.arg with
        | None -> List.map (fun _ -> Value.Int 1) members
        | Some i -> List.map (fun r -> Row.get r i) members
      in
      Eval.aggregate_values spec.fn column
    in
    Row.append key (Row.of_list (List.map agg_value aggs))
  in
  let current = ref None (* (key, members so far) *) in
  let done_ = ref false in
  let emitted_global = ref false in
  let rec next () =
    if !done_ then None
    else
      match input.next () with
      | Some r -> (
          let k = key_of r in
          match !current with
          | None ->
              current := Some (k, [ r ]);
              next ()
          | Some (k', members) ->
              if Row.equal k k' then begin
                current := Some (k', r :: members);
                next ()
              end
              else begin
                current := Some (k, [ r ]);
                Some (finish k' members)
              end)
      | None -> (
          done_ := true;
          match !current with
          | Some (k, members) -> Some (finish k members)
          | None ->
              if group_key = [] && not !emitted_global then begin
                emitted_global := true;
                Some (finish [||] [])
              end
              else None)
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Hash aggregation (beyond the paper)                                 *)
(* ------------------------------------------------------------------ *)

(* Per-group accumulators live in [Eval] (shared with the vectorized
   engine, so the two cannot drift on NULL/empty-input rules). *)
let fresh_state (spec : agg_spec) = Eval.fresh_state spec.fn
let update_state = Eval.update_state
let finish_state = Eval.finish_state

(* Hash-based grouped aggregation: one pass over unsorted input, holding one
   accumulator row per group in memory — no external sort, no page I/O.
   Output order is group first-occurrence order.  Same contract as
   {!group_agg_sorted} otherwise, including the one-row global aggregate for
   an empty [group_key]. *)
let hash_group_agg ~group_key ~(aggs : agg_spec list) ~schema (input : t) : t =
  let gk = Array.of_list group_key in
  let agg_arr = Array.of_list aggs in
  (* [Row.Tbl]: group keys must unify under [Value.compare] semantics (NULL
     is one group; Int/Float group numerically), matching the sorted path. *)
  let groups : Eval.agg_state array Row.Tbl.t = Row.Tbl.create 256 in
  let order = ref [] (* group keys, most recent first *) in
  let probe = Array.make (Array.length gk) Value.Null in
  let drain () =
    let rec loop () =
      match input.next () with
      | None -> ()
      | Some r ->
          Array.iteri (fun i gi -> probe.(i) <- Row.get r gi) gk;
          let states =
            match Row.Tbl.find_opt groups probe with
            | Some st -> st
            | None ->
                let key = Array.copy probe in
                let st = Array.map fresh_state agg_arr in
                Row.Tbl.add groups key st;
                order := key :: !order;
                st
          in
          Array.iteri
            (fun i spec ->
              let v =
                match spec.arg with
                | None -> Value.Int 1
                | Some c -> Row.get r c
              in
              update_state states.(i) v)
            agg_arr;
          loop ()
    in
    loop ()
  in
  let out = ref None in
  let rec next () =
    match !out with
    | Some remaining -> (
        match !remaining with
        | [] -> None
        | r :: rest ->
            remaining := rest;
            Some r)
    | None ->
        drain ();
        let rows =
          List.rev_map
            (fun key ->
              let states = Row.Tbl.find groups key in
              Row.append key (Array.map finish_state states))
            !order
        in
        let rows =
          if rows = [] && group_key = [] then
            [ Row.of_list
                (List.map (fun spec -> finish_state (fresh_state spec)) aggs) ]
          else rows
        in
        out := Some (ref rows);
        next ()
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Band aggregation (beyond the paper)                                 *)
(* ------------------------------------------------------------------ *)

(* [GROUP BY <left columns>] over [left ⋈ right] when the join has one
   band condition ([<], [<=], [>], [>=]) and any number of equality
   conditions: the temp NEST-JA2 builds for a non-equality correlation
   (§5.3) and the §8 ALL rewrite's counting temp.  A nested-loop join
   re-reads the inner once per outer row and its output is then sorted to
   be grouped; this operator holds B-2 pages of left rows in memory and
   streams the inner once per such chunk, never producing the join's rows.

   Per chunk, the distinct left groups (with their multiplicity) are split
   into segments by equality key, and each segment's band keys are sorted.
   The band condition selects a prefix ([<], [<=]) or a suffix ([>], [>=])
   of a segment's sorted keys, so a right row lands in one bucket: the
   position where its range ends.  A sweep over the buckets then combines
   each key's range.  COUNT and SUM scale by the group's multiplicity;
   under [outer_join] an empty range gives what the null-padded join row
   would: COUNT 0, COUNT-star the multiplicity, NULL for the rest.  NULL
   keys match nothing (null-safe equality columns excepted).  SUM and AVG
   take Int arguments only: bucketed partial sums of floats would round
   differently from a row-order sum.

   Contract: [group_key] holds every left column a condition reads, so a
   group's rows share one range.  Output is one row per group (key, then
   aggregates) in group-key order, as a sort-based GROUP BY emits it.
   When one chunk holds the whole left side the inner is read exactly
   once; otherwise the left is read in group-key order ([left_sorted], or
   sorted here) and a [Streamed] inner is materialized once and re-read
   per chunk.  [on_pass] is called once per read of the inner. *)

type band_inner = Stored of Heap_file.t | Streamed of (unit -> t)

(* One bucket's (or range's) partial aggregates: matched rows, and per
   aggregate the non-NULL argument count, the MIN/MAX so far and the
   integer sum. *)
type band_partial = {
  mutable matched : int;
  nonnull : int array;
  extreme : Value.t array;
  sum : int array;
}

let band_partial n =
  {
    matched = 0;
    nonnull = Array.make n 0;
    extreme = Array.make n Value.Null;
    sum = Array.make n 0;
  }

let band_copy p =
  {
    matched = p.matched;
    nonnull = Array.copy p.nonnull;
    extreme = Array.copy p.extreme;
    sum = Array.copy p.sum;
  }

(* Does [v] replace [cur] as the MIN/MAX? *)
let band_better (fn : Sql.Ast.agg) v cur =
  (not (Value.is_null v))
  && (Value.is_null cur
     ||
     let c = Value.compare v cur in
     match fn with Max _ -> c > 0 | _ -> c < 0)

let band_add_row (aggs : agg_spec array) p (r : Row.t) =
  p.matched <- p.matched + 1;
  Array.iteri
    (fun i (spec : agg_spec) ->
      match spec.arg with
      | None -> ()
      | Some c -> (
          match (spec.fn, Row.get r c) with
          | _, Value.Null | Count_star, _ -> ()
          | Count _, _ -> p.nonnull.(i) <- p.nonnull.(i) + 1
          | (Max _ | Min _), v ->
              if band_better spec.fn v p.extreme.(i) then p.extreme.(i) <- v
          | (Sum _ | Avg _), Value.Int n ->
              p.nonnull.(i) <- p.nonnull.(i) + 1;
              p.sum.(i) <- p.sum.(i) + n
          | (Sum _ | Avg _), v ->
              invalid_arg
                (Fmt.str "band aggregate: SUM/AVG over non-integer %a" Value.pp
                   v)))
    aggs

let band_combine (aggs : agg_spec array) acc p =
  acc.matched <- acc.matched + p.matched;
  Array.iteri
    (fun i (spec : agg_spec) ->
      acc.nonnull.(i) <- acc.nonnull.(i) + p.nonnull.(i);
      acc.sum.(i) <- acc.sum.(i) + p.sum.(i);
      if band_better spec.fn p.extreme.(i) acc.extreme.(i) then
        acc.extreme.(i) <- p.extreme.(i))
    aggs

(* A group's output row from its range and multiplicity; [None] when an
   inner join drops the group. *)
let band_finish ~outer_join (aggs : agg_spec array) key mult p =
  if p.matched = 0 && not outer_join then None
  else
    let value i (spec : agg_spec) =
      match spec.fn with
      | Count_star -> Value.Int (mult * max 1 p.matched)
      | Count _ -> Value.Int (mult * p.nonnull.(i))
      | Max _ | Min _ -> p.extreme.(i)
      | Sum _ | Avg _ when p.nonnull.(i) = 0 -> Value.Null
      | Sum _ -> Value.Int (mult * p.sum.(i))
      | Avg _ ->
          Value.Float
            (float_of_int (mult * p.sum.(i))
            /. float_of_int (mult * p.nonnull.(i)))
    in
    Some (Row.append key (Array.mapi value aggs))

(* One left group of a chunk: key, a representative row, multiplicity,
   and its band key's segment and slot ([seg] = -1: matches nothing). *)
type band_group = {
  g_key : Row.t;
  g_row : Row.t;
  mutable mult : int;
  mutable seg : int;
  mutable slot : int;
}

let band_agg ?heaps pager ~outer_join ~eq ~band:(band_l, op, band_r)
    ~group_key ~(aggs : agg_spec list) ~schema ~left_sorted ?(on_pass = ignore)
    ~inner (left : t) : t =
  let aggs = Array.of_list aggs in
  let n_aggs = Array.length aggs in
  let gk = Array.of_list group_key in
  let eq_l = Array.of_list (List.map (fun (l, _, _) -> l) eq) in
  let eq_r = Array.of_list (List.map (fun (_, r, _) -> r) eq) in
  let strict = Array.of_list (List.map (fun (_, _, safe) -> not safe) eq) in
  let n_eq = Array.length eq_l in
  let key_null idxs (r : Row.t) =
    let rec go i =
      i < n_eq && ((strict.(i) && Value.is_null r.(idxs.(i))) || go (i + 1))
    in
    go 0
  in
  (* Keys below [v] (at or below it when [inclusive]) in a sorted array. *)
  let rank keys v ~inclusive =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Value.compare keys.(mid) v in
      if c < 0 || (inclusive && c = 0) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* [l op v] holds for keys [0, b) when [prefix], for [b, k) otherwise. *)
  let prefix, inclusive =
    match op with
    | Sql.Ast.Lt -> (true, false)
    | Le -> (true, true)
    | Gt -> (false, true)
    | Ge -> (false, false)
    | Eq | Ne | Eq_null -> invalid_arg "band aggregate: not a band comparison"
  in
  let capacity =
    max 1 (Pager.buffer_pages pager - 2)
    * max 1 (Pager.page_bytes pager / Schema.tuple_width_estimate left.schema)
  in
  (* Reading chunks: [capacity] rows, then on while rows continue the last
     group, so a group never spans two chunks of a sorted input. *)
  let pending = ref None in
  let pull (src : t) =
    match !pending with
    | Some _ as r ->
        pending := None;
        r
    | None -> src.next ()
  in
  let last = ref None in
  let fill ~check src =
    let index : band_group Row.Tbl.t = Row.Tbl.create 64 in
    let groups = ref [] and read = ref 0 and in_order = ref true in
    let continues key =
      match !last with Some prev -> Row.equal key prev | None -> false
    in
    let rec loop () =
      match pull src with
      | None -> true
      | Some r ->
          let key = Row.project_positions r gk in
          if !read < capacity || continues key then begin
            (match !last with
            | Some prev when Row.compare key prev < 0 ->
                if check then
                  invalid_arg "band aggregate: left input not in group order";
                in_order := false
            | _ -> ());
            last := Some key;
            incr read;
            (match Row.Tbl.find_opt index key with
            | Some g -> g.mult <- g.mult + 1
            | None ->
                let g =
                  { g_key = key; g_row = r; mult = 1; seg = -1; slot = 0 }
                in
                Row.Tbl.add index key g;
                groups := g :: !groups);
            loop ()
          end
          else begin
            pending := Some r;
            false
          end
    in
    let exhausted = loop () in
    (Array.of_list (List.rev !groups), exhausted, !in_order)
  in
  (* One chunk against one read of the inner: the chunk's output rows. *)
  let process groups (read_inner : unit -> unit -> Row.t option) =
    let seg_of : (int * Value.t list ref) Row.Tbl.t = Row.Tbl.create 16 in
    let bands = ref [] (* per segment, newest first *) and n_seg = ref 0 in
    Array.iter
      (fun g ->
        let v = g.g_row.(band_l) in
        if not (Value.is_null v || key_null eq_l g.g_row) then begin
          let key = Row.project_positions g.g_row eq_l in
          let s, vs =
            match Row.Tbl.find_opt seg_of key with
            | Some seg -> seg
            | None ->
                let seg = (!n_seg, ref []) in
                Row.Tbl.add seg_of key seg;
                bands := snd seg :: !bands;
                incr n_seg;
                seg
          in
          g.seg <- s;
          vs := v :: !vs
        end)
      groups;
    let keys =
      Array.of_list
        (List.rev_map
           (fun l ->
             let a = Array.of_list !l in
             Array.sort Value.compare a;
             let distinct =
               Array.fold_left
                 (fun acc v ->
                   match acc with
                   | prev :: _ when Value.compare prev v = 0 -> acc
                   | _ -> v :: acc)
                 [] a
             in
             Array.of_list (List.rev distinct))
           !bands)
    in
    Array.iter
      (fun g ->
        if g.seg >= 0 then
          g.slot <- rank keys.(g.seg) g.g_row.(band_l) ~inclusive:false)
      groups;
    let buckets =
      Array.map
        (fun k ->
          Array.init (Array.length k + 1) (fun _ -> band_partial n_aggs))
        keys
    in
    if !n_seg > 0 then begin
      on_pass ();
      let next = read_inner () in
      let probe = Array.make n_eq Value.Null in
      let rec loop () =
        match next () with
        | None -> ()
        | Some r ->
            let v = r.(band_r) in
            let s =
              if Value.is_null v || key_null eq_r r then -1
              else if n_eq = 0 then 0
              else begin
                Array.iteri (fun i c -> probe.(i) <- r.(c)) eq_r;
                match Row.Tbl.find_opt seg_of probe with
                | Some (s, _) -> s
                | None -> -1
              end
            in
            if s >= 0 then begin
              let k = keys.(s) in
              let b = rank k v ~inclusive in
              if (prefix && b > 0) || ((not prefix) && b < Array.length k) then
                band_add_row aggs buckets.(s).(b) r
            end;
            loop ()
      in
      loop ()
    end;
    (* Combine each key's range: the buckets after it for a prefix band,
       the buckets up to it for a suffix band. *)
    let ranges =
      Array.mapi
        (fun s k ->
          let n = Array.length k in
          let acc = band_partial n_aggs in
          let out = Array.make n acc in
          if prefix then
            for i = n - 1 downto 0 do
              band_combine aggs acc buckets.(s).(i + 1);
              out.(i) <- band_copy acc
            done
          else
            for i = 0 to n - 1 do
              band_combine aggs acc buckets.(s).(i);
              out.(i) <- band_copy acc
            done;
          out)
        keys
    in
    let empty = band_partial n_aggs in
    Array.sort (fun a b -> Row.compare a.g_key b.g_key) groups;
    List.filter_map
      (fun g ->
        let range = if g.seg < 0 then empty else ranges.(g.seg).(g.slot) in
        band_finish ~outer_join aggs g.g_key g.mult range)
      (Array.to_list groups)
  in
  (* Several chunks: left in group order, the inner stored for re-reads. *)
  let chunks src first =
    let heap, release =
      match inner with
      | Stored heap -> (heap, ignore)
      | Streamed build ->
          let heap = materialize pager (build ()) in
          (heap, owned ?heaps heap)
    in
    let current = ref (Some first) in
    fun () ->
      match !current with
      | None ->
          release ();
          None
      | Some (groups, exhausted) ->
          let rows = process groups (fun () -> Heap_file.scan heap) in
          (current :=
             if exhausted then None
             else
               let groups, exhausted, _ = fill ~check:true src in
               Some (groups, exhausted));
          Some rows
  in
  let start () =
    let groups, exhausted, in_order = fill ~check:false left in
    if exhausted then begin
      let rows =
        process groups (fun () ->
            match inner with
            | Stored heap -> Heap_file.scan heap
            | Streamed build -> (build ()).next)
      in
      let once = ref (Some rows) in
      fun () ->
        let r = !once in
        once := None;
        r
    end
    else if left_sorted && in_order then chunks left (groups, false)
    else begin
      (* Re-read what the first chunk took, then the rest, through an
         external sort on the group key. *)
      let replay =
        ref
          (List.concat_map
             (fun g -> List.init g.mult (fun _ -> g.g_row))
             (Array.to_list groups))
      in
      let rest =
        {
          left with
          next =
            (fun () ->
              match !replay with
              | r :: tl ->
                  replay := tl;
                  Some r
              | [] -> pull left);
        }
      in
      let sorted = sort ?heaps pager ~key:group_key rest in
      last := None;
      let groups, exhausted, _ = fill ~check:true sorted in
      chunks sorted (groups, exhausted)
    end
  in
  (* Nothing is read before the first pull. *)
  let chunk = lazy (start ()) and out = ref [] in
  let rec next () =
    match !out with
    | r :: rest ->
        out := rest;
        Some r
    | [] -> (
        match Lazy.force chunk () with
        | None -> None
        | Some rows ->
            out := rows;
            next ())
  in
  { schema; next }
