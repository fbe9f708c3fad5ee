(* Pager (LRU + counters), heap files and external sort. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema
module Relation = Relalg.Relation
open Storage

let int_schema = Schema.of_columns ~rel:"T" [ ("a", Value.Tint) ]

let row i = Row.of_list [ Value.Int i ]

let test_pager_counters () =
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  Pager.append_page pager f [| row 1 |];
  Pager.append_page pager f [| row 2 |];
  Pager.append_page pager f [| row 3 |];
  let s = Pager.stats pager in
  Alcotest.(check int) "three writes" 3 s.physical_writes;
  (* Pages 1 and 2 are resident (B=2); reading them is free, page 0 was
     evicted. *)
  ignore (Pager.read_page pager f 2);
  ignore (Pager.read_page pager f 0);
  Alcotest.(check int) "logical reads" 2 s.logical_reads;
  Alcotest.(check int) "one miss" 1 s.physical_reads

let test_pager_lru () =
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 2 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  (* Resident: pages 1,2.  Access 1 (hit), then 0 (miss, evicts 2), then 2
     (miss). *)
  ignore (Pager.read_page pager f 1);
  ignore (Pager.read_page pager f 0);
  ignore (Pager.read_page pager f 2);
  ignore (Pager.read_page pager f 0);
  (* hit: 0 still resident *)
  let s = Pager.stats pager in
  Alcotest.(check int) "misses follow LRU" 2 s.physical_reads;
  Alcotest.(check int) "logical" 4 s.logical_reads

let test_pager_repeated_scan_fits () =
  (* An inner relation that fits in the pool costs its pages once no matter
     how many times it is re-scanned — the regime where nested iteration is
     competitive. *)
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 3 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  for _ = 1 to 10 do
    for i = 0 to 3 do
      ignore (Pager.read_page pager f i)
    done
  done;
  let s = Pager.stats pager in
  Alcotest.(check int) "40 logical" 40 s.logical_reads;
  Alcotest.(check int) "0 misses" 0 s.physical_reads

let test_pager_repeated_scan_thrashes () =
  (* When the relation exceeds the pool, LRU + sequential scans miss on
     every page: N scans cost N*P reads — the paper's f(i)*Ni*Pj regime. *)
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 3 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  for _ = 1 to 5 do
    for i = 0 to 3 do
      ignore (Pager.read_page pager f i)
    done
  done;
  let s = Pager.stats pager in
  Alcotest.(check int) "every read misses" 20 s.physical_reads

let test_pager_validation () =
  Alcotest.(check bool) "B >= 2 enforced" true
    (try
       ignore (Pager.create ~buffer_pages:1 ());
       false
     with Invalid_argument _ -> true);
  let pager = Pager.create () in
  let f = Pager.create_file pager in
  Alcotest.(check bool) "missing page" true
    (try
       ignore (Pager.read_page pager f 0);
       false
     with Invalid_argument _ -> true)

let test_heap_file_roundtrip () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:32 () in
  let rel =
    Relation.make int_schema (List.init 37 row)
  in
  let heap = Heap_file.of_relation pager rel in
  Alcotest.(check int) "tuples" 37 (Heap_file.tuple_count heap);
  Alcotest.(check bool) "multiple pages" true (Heap_file.page_count heap > 1);
  let back = Heap_file.to_relation heap in
  Alcotest.(check bool) "round trip preserves rows & order" true
    (List.equal Row.equal (Relation.rows rel) (Relation.rows back))

let test_heap_file_partial_page () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:1024 () in
  let heap = Heap_file.create pager int_schema in
  Heap_file.append heap (row 1);
  (* unflushed tail still counts as a page and scans see it *)
  Alcotest.(check int) "tail page counted" 1 (Heap_file.page_count heap);
  let back = Heap_file.to_relation heap in
  Alcotest.(check int) "scan flushes tail" 1 (Relation.cardinality back)

let test_heap_file_arity_check () =
  let pager = Pager.create () in
  let heap = Heap_file.create pager int_schema in
  Alcotest.(check bool) "arity mismatch" true
    (try
       Heap_file.append heap (Row.of_list Value.[ Int 1; Int 2 ]);
       false
     with Invalid_argument _ -> true)

let sort_values pager ?dedup xs =
  let rel = Relation.make int_schema (List.map row xs) in
  let heap = Heap_file.of_relation pager rel in
  let sorted = External_sort.sort pager ?dedup ~key:[ 0 ] heap in
  List.map
    (function
      | [ Value.Int i ] -> i
      | _ -> Alcotest.fail "bad row")
    (List.map Row.to_list (Relation.rows (Heap_file.to_relation sorted)))

let test_external_sort_small () =
  let pager = Pager.create ~buffer_pages:3 ~page_bytes:32 () in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ]
    (sort_values pager [ 4; 2; 5; 1; 3 ]);
  Alcotest.(check (list int)) "empty" [] (sort_values pager []);
  Alcotest.(check (list int)) "dedup"
    [ 1; 2; 3 ]
    (sort_values pager ~dedup:External_sort.Drop_duplicates [ 2; 1; 2; 3; 1 ])

let test_external_sort_multipass () =
  (* Force several merge passes: B=3 gives 2-way merges. *)
  let pager = Pager.create ~buffer_pages:3 ~page_bytes:16 () in
  let input = List.init 200 (fun i -> (i * 7919) mod 201) in
  let got = sort_values pager input in
  Alcotest.(check (list int)) "multipass sort" (List.sort compare input) got;
  let got_dedup =
    sort_values pager ~dedup:External_sort.Drop_duplicates input
  in
  Alcotest.(check (list int)) "multipass dedup"
    (List.sort_uniq compare input)
    got_dedup

let test_external_sort_io_shape () =
  (* Sorting P pages with B buffers should cost on the order of
     2*P*(1 + ceil(log_{B-1}(P/B))) page I/Os — linear passes over the data,
     not quadratic. *)
  let pager = Pager.create ~buffer_pages:3 ~page_bytes:16 () in
  let rel = Relation.make int_schema (List.init 256 (fun i -> row (255 - i))) in
  let heap = Heap_file.of_relation pager rel in
  let p = Heap_file.page_count heap in
  Pager.reset_stats pager;
  let sorted = External_sort.sort pager ~key:[ 0 ] heap in
  ignore sorted;
  let s = Pager.stats pager in
  let passes_upper = 2 + int_of_float (ceil (log (float p) /. log 2.)) in
  Alcotest.(check bool)
    (Printf.sprintf "io %d for %d pages is O(P log P)" (Pager.total_io s) p)
    true
    (Pager.total_io s <= 2 * p * passes_upper)

(* --- B-tree -------------------------------------------------------------- *)

let kv_schema = Schema.of_columns ~rel:"T" [ ("k", Value.Tint); ("v", Value.Tint) ]

let kv_heap pager rows =
  Heap_file.of_relation pager
    (Relation.make kv_schema
       (List.map (fun (k, v) -> Row.of_list [ Value.Int k; Value.Int v ]) rows))

let test_index_lookup () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap = kv_heap pager [ (5, 50); (1, 10); (5, 51); (3, 30); (1, 11) ] in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "entries" 5 (Btree.entry_count idx);
  let values key =
    List.map (fun r -> Row.get r 1) (Btree.lookup_eq idx (Value.Int key))
    |> List.sort Value.compare
  in
  Alcotest.(check bool) "duplicates found" true
    (values 5 = [ Value.Int 50; Value.Int 51 ]);
  Alcotest.(check bool) "single" true (values 3 = [ Value.Int 30 ]);
  Alcotest.(check bool) "missing" true (values 99 = []);
  Alcotest.(check bool) "null probe matches nothing" true
    (Btree.lookup_eq idx Value.Null = [])

let test_index_null_keys_excluded () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap =
    Heap_file.of_relation pager
      (Relation.make kv_schema
         [ Row.of_list [ Value.Null; Value.Int 1 ];
           Row.of_list [ Value.Int 2; Value.Int 2 ] ])
  in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "null keys not indexed" 1 (Btree.entry_count idx)

let test_index_build_costs_io () =
  (* Construction used to hide behind [without_accounting]; now the heap
     scan, sort runs and tree pages are all charged and recorded. *)
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:32 () in
  let heap = kv_heap pager (List.init 64 (fun i -> (i, i))) in
  Pager.reset_stats pager;
  let idx = Btree.build pager heap ~key_col:0 in
  let s = Pager.stats pager in
  Alcotest.(check bool) "build charged" true (s.physical_reads > 0);
  Alcotest.(check bool) "build writes charged" true (s.physical_writes > 0);
  let b = Btree.build_io idx in
  Alcotest.(check int) "build_io records reads" s.physical_reads
    b.Pager.physical_reads;
  Pager.reset_stats pager;
  ignore (Btree.lookup_eq idx (Value.Int 40));
  let s = Pager.stats pager in
  Alcotest.(check bool) "probe charged" true (s.logical_reads > 0)

let test_btree_multi_level () =
  (* Tiny pages force real interior levels; every key must still resolve
     with O(height) descents. *)
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:48 () in
  let n = 500 in
  let heap =
    kv_heap pager (List.init n (fun i -> (((i * 7919) mod n), i)))
  in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "entries" n (Btree.entry_count idx);
  Alcotest.(check bool) "multi-level" true (Btree.height idx >= 2);
  Alcotest.(check bool) "interior pages exist" true
    (Btree.pages idx > Btree.leaf_page_count idx);
  for k = 0 to n - 1 do
    match Btree.lookup_eq idx (Value.Int k) with
    | [ _ ] -> ()
    | rows ->
        Alcotest.failf "key %d: expected 1 row, got %d" k (List.length rows)
  done

let test_btree_range () =
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:48 () in
  let heap = kv_heap pager (List.init 100 (fun i -> (i, i * 10))) in
  let idx = Btree.build pager heap ~key_col:0 in
  let collect ?lo ?hi () =
    let next = Btree.range idx ?lo ?hi () in
    let rec go acc =
      match next () with
      | Some r -> go (Row.get r 0 :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let ints xs = List.map (fun i -> Value.Int i) xs in
  Alcotest.(check bool) "closed range" true
    (collect ~lo:(Value.Int 10, true) ~hi:(Value.Int 14, true) ()
    = ints [ 10; 11; 12; 13; 14 ]);
  Alcotest.(check bool) "open lo" true
    (collect ~lo:(Value.Int 10, false) ~hi:(Value.Int 12, true) ()
    = ints [ 11; 12 ]);
  Alcotest.(check bool) "open hi" true
    (collect ~lo:(Value.Int 97, true) ~hi:(Value.Int 99, false) ()
    = ints [ 97; 98 ]);
  Alcotest.(check bool) "unbounded hi reaches end" true
    (collect ~lo:(Value.Int 95, true) () = ints [ 95; 96; 97; 98; 99 ]);
  Alcotest.(check bool) "unbounded lo starts at min" true
    (collect ~hi:(Value.Int 3, true) () = ints [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "full scan via range" 100
    (List.length (collect ()));
  Alcotest.(check bool) "null bound matches nothing" true
    (collect ~lo:(Value.Null, true) () = [])

let test_btree_empty () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap = kv_heap pager [] in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "no entries" 0 (Btree.entry_count idx);
  Alcotest.(check bool) "probe on empty" true
    (Btree.lookup_eq idx (Value.Int 1) = []);
  let next = Btree.range idx () in
  Alcotest.(check bool) "range on empty" true (next () = None)

(* --- Stats --------------------------------------------------------------- *)

let test_stats_columns () =
  let rel =
    Relation.of_values ~rel:"T"
      [ ("K", Value.Tint); ("S", Value.Tstr) ]
      Value.
        [
          [ Int 1; Str "a" ]; [ Int 1; Str "b" ]; [ Int 3; Null ];
          [ Int 7; Str "a" ];
        ]
  in
  let stats = Stats.of_relation rel in
  Alcotest.(check int) "tuples" 4 (Stats.tuples stats);
  let k = Stats.column stats 0 in
  Alcotest.(check int) "distinct K" 3 k.Stats.distinct;
  Alcotest.(check int) "nulls K" 0 k.Stats.nulls;
  Alcotest.(check bool) "min K" true (k.Stats.min = Some (Value.Int 1));
  Alcotest.(check bool) "max K" true (k.Stats.max = Some (Value.Int 7));
  let s = Stats.column stats 1 in
  Alcotest.(check int) "distinct S" 2 s.Stats.distinct;
  Alcotest.(check int) "nulls S" 1 s.Stats.nulls

let test_stats_selectivity () =
  let c =
    { Stats.distinct = 10; nulls = 0; min = Some (Value.Int 0);
      max = Some (Value.Int 100) }
  in
  Alcotest.(check bool) "eq = 1/distinct" true
    (Stats.literal_selectivity c Sql.Ast.Eq (Value.Int 5) = 0.1);
  let lt = Stats.literal_selectivity c Sql.Ast.Lt (Value.Int 25) in
  Alcotest.(check bool) "range interpolates" true (lt > 0.2 && lt < 0.3);
  let gt = Stats.literal_selectivity c Sql.Ast.Gt (Value.Int 25) in
  Alcotest.(check bool) "complement" true (Float.abs (lt +. gt -. 1.) < 0.01);
  Alcotest.(check bool) "clamped away from 0" true
    (Stats.literal_selectivity c Sql.Ast.Lt (Value.Int (-5)) >= 0.05);
  let empty = { Stats.distinct = 0; nulls = 0; min = None; max = None } in
  Alcotest.(check bool) "no stats falls back" true
    (Stats.literal_selectivity empty Sql.Ast.Lt (Value.Int 1)
    = Stats.default_range_selectivity);
  Alcotest.(check bool) "join selectivity" true
    (Stats.join_selectivity c c = 0.1)

let test_stats_io_free () =
  (* Registration (including stats collection) must not charge the I/O
     counters beyond the heap writes themselves. *)
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:32 () in
  let catalog = Catalog.create pager in
  Pager.reset_stats pager;
  Catalog.register_relation catalog "T"
    (Relation.make int_schema (List.init 50 row));
  let s = Pager.stats pager in
  Alcotest.(check int) "no reads charged for stats" 0 s.physical_reads

let test_catalog_basics () =
  let pager = Pager.create () in
  let catalog = Catalog.create pager in
  Catalog.register_relation catalog "T"
    (Relation.make int_schema (List.init 5 row));
  Alcotest.(check bool) "mem" true (Catalog.mem catalog "T");
  Alcotest.(check int) "tuples" 5 (Catalog.tuples catalog "T");
  Alcotest.(check bool) "lookup" true (Catalog.lookup catalog "T" <> None);
  Alcotest.(check bool) "unknown lookup" true (Catalog.lookup catalog "X" = None);
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Catalog.relation catalog "X");
       false
     with Catalog.Unknown_table "X" -> true);
  Alcotest.(check bool) "dup register" true
    (try
       Catalog.register_relation catalog "T" (Relation.make int_schema []);
       false
     with Invalid_argument _ -> true);
  let t1 = Catalog.fresh_temp_name catalog in
  let t2 = Catalog.fresh_temp_name catalog in
  Alcotest.(check bool) "fresh names differ" true (t1 <> t2);
  Catalog.drop catalog "T";
  Alcotest.(check bool) "dropped" false (Catalog.mem catalog "T")

let test_catalog_sorted_on () =
  let pager = Pager.create () in
  let catalog = Catalog.create pager in
  Catalog.register_relation ~sorted_on:[ 0 ] catalog "T"
    (Relation.make int_schema (List.init 3 row));
  Alcotest.(check bool) "sorted metadata" true
    (Catalog.sorted_on catalog "T" = Some [ 0 ])

(* Property: external sort equals in-memory sort, with and without dedup. *)
let prop_sort_matches_list_sort =
  QCheck2.Test.make ~name:"external sort = List.sort" ~count:100
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 50))
    (fun xs ->
      let pager = Storage.Pager.create ~buffer_pages:3 ~page_bytes:16 () in
      sort_values pager xs = List.sort compare xs
      && sort_values pager ~dedup:External_sort.Drop_duplicates xs
         = List.sort_uniq compare xs)

(* --- External sort at full strength: multi-column keys, mixed ties ---------

   [Int n], [Float n.] and NULL rows with multi-column keys over a 48-byte
   page (two 3-column rows) and B in {3, 4, 64}: up to 25 runs and five
   2-way merge passes.  Rows [compare]-equal but structurally different
   ([Int 1] vs [Float 1.]) make the merge's tie order observable. *)

let mixed_schema =
  Schema.of_columns ~rel:"T"
    [ ("a", Value.Tint); ("b", Value.Tint); ("c", Value.Tint) ]

(* The §7 shape of a sort's page traffic, as (logical reads, physical
   writes): pass 0 reads the P input pages and writes runs of B pages; each
   (B-1)-way merge pass reads every run page once and writes its output,
   which under [Drop_duplicates] holds one row per [Row.equal] class of the
   group.  A lone run is merged only to drop duplicates. *)
let sort_io_model ~b ~rows_per_page ~dedup rows =
  let pages rs = (List.length rs + rows_per_page - 1) / rows_per_page in
  let drop = dedup = External_sort.Drop_duplicates in
  let reads = ref (pages rows) and writes = ref 0 in
  let rec chunk acc cur n = function
    | [] -> List.rev (if cur = [] && acc <> [] then acc else cur :: acc)
    | r :: rest when n = b * rows_per_page -> chunk (cur :: acc) [ r ] 1 rest
    | r :: rest -> chunk acc (r :: cur) (n + 1) rest
  in
  let runs = chunk [] [] 0 rows in
  List.iter (fun run -> writes := !writes + pages run) runs;
  let merge group =
    List.iter (fun run -> reads := !reads + pages run) group;
    let out = List.concat group in
    let out = if drop then List.sort_uniq Row.compare out else out in
    writes := !writes + pages out;
    out
  in
  let fan_in = max 2 (b - 1) in
  let rec pass acc group = function
    | [] -> List.rev (if group = [] then acc else merge (List.rev group) :: acc)
    | run :: rest when List.length group = fan_in ->
        pass (merge (List.rev group) :: acc) [ run ] rest
    | run :: rest -> pass acc (run :: group) rest
  in
  let rec merge_all = function
    | [] | [ _ ] -> ()
    | runs -> merge_all (pass [] [] runs)
  in
  (match runs with
  | [ single ] when drop -> ignore (merge [ single ])
  | runs -> merge_all runs);
  (!reads, !writes)

let sort_mixed ~b ~dedup ~key rows =
  let pager = Pager.create ~buffer_pages:b ~page_bytes:48 () in
  let heap = Heap_file.of_relation pager (Relation.make mixed_schema rows) in
  Pager.reset_stats pager;
  let sorted = External_sort.sort pager ~dedup ~key heap in
  let s = Pager.stats pager in
  let io = (s.logical_reads, s.physical_reads, s.physical_writes) in
  (Relation.rows (Heap_file.to_relation sorted), io)

let gen_mixed_sort =
  QCheck2.Gen.(
    let value =
      oneof
        [
          map (fun n -> Value.Int n) (int_range 0 3);
          map (fun n -> Value.Float (float_of_int n)) (int_range 0 3);
          pure Value.Null;
        ]
    in
    quad
      (list_size (int_range 0 150) (map Row.of_list (list_repeat 3 value)))
      (oneofl [ [ 0 ]; [ 2 ]; [ 1; 0 ]; [ 2; 1 ]; [ 0; 1; 2 ]; [ 2; 0; 1 ] ])
      (oneofl [ 3; 4; 64 ])
      (oneofl External_sort.[ Keep_duplicates; Drop_duplicates ]))

let prop_sort_mixed_ties =
  QCheck2.Test.make
    ~name:"external sort: multi-column keys, mixed Int/Float/NULL ties"
    ~count:200 gen_mixed_sort (fun (rows, key, b, dedup) ->
      let out, (logical, physical, writes) = sort_mixed ~b ~dedup ~key rows in
      let rec ordered = function
        | x :: (y :: _ as rest) ->
            let c = Row.compare_on key x y in
            (c < 0 || (c = 0 && Row.compare x y <= 0)) && ordered rest
        | _ -> true
      in
      let rec no_adjacent_equal = function
        | x :: (y :: _ as rest) -> (not (Row.equal x y)) && no_adjacent_equal rest
        | _ -> true
      in
      let permutation =
        match dedup with
        | External_sort.Keep_duplicates ->
            List.sort Stdlib.compare out = List.sort Stdlib.compare rows
        | External_sort.Drop_duplicates ->
            List.for_all (fun r -> List.mem r rows) out
            && no_adjacent_equal out
            && List.length out = List.length (List.sort_uniq Row.compare rows)
      in
      let model = sort_io_model ~b ~rows_per_page:2 ~dedup rows in
      (ordered out && permutation
      && (logical, writes) = model
      && physical <= logical)
      || QCheck2.Test.fail_reportf
           "B=%d, %d rows: ordered %b, permutation %b; io (%d, %d) vs model \
            (%d, %d), %d physical reads"
           b (List.length rows) (ordered out) permutation logical writes
           (fst model) (snd model) physical)

(* One fixed mixed-tie input, its output sequence and page counters
   pinned: which of two [compare]-equal rows comes first (and which one
   [Drop_duplicates] keeps) is part of the sort's contract. *)
let test_external_sort_pinned_ties () =
  let v = function
    | 0 -> Value.Int 0
    | 1 -> Value.Float 0.
    | 2 -> Value.Int 1
    | 3 -> Value.Float 1.
    | _ -> Value.Null
  in
  let show = function
    | Value.Int n -> string_of_int n
    | Value.Float f -> Printf.sprintf "%g." f
    | Value.Null -> "N"
    | _ -> "?"
  in
  let schema =
    Schema.of_columns ~rel:"T" [ ("a", Value.Tint); ("b", Value.Tint) ]
  in
  let input =
    List.init 40 (fun i ->
        Row.of_list [ v (i * 7 mod 5); v (((i / 3) + i) mod 5) ])
  in
  let sorted dedup =
    let pager = Pager.create ~buffer_pages:3 ~page_bytes:32 () in
    let heap = Heap_file.of_relation pager (Relation.make schema input) in
    Pager.reset_stats pager;
    let out = External_sort.sort pager ~dedup ~key:[ 1 ] heap in
    let s = Pager.stats pager in
    let rows = Relation.rows (Heap_file.to_relation out) in
    ( (s.logical_reads, s.physical_reads, s.physical_writes),
      String.concat " "
        (List.map
           (fun r -> String.concat "|" (List.map show (Row.to_list r)))
           rows) )
  in
  let io = Alcotest.(triple int int int) in
  let keep_io, keep = sorted External_sort.Keep_duplicates in
  Alcotest.(check io) "keep: io" (100, 100, 80) keep_io;
  Alcotest.(check string) "keep: rows"
    "N|N N|N N|N 0.|N 0.|N 0.|N 1|N 1|N N|0. N|0. 0|0. 0|0 0.|0 0|0 0.|0 \
     0|0. 0|0. 0|0 0.|0 1.|0 1|0. 1|0. 1.|0 1.|0 1|0. N|1 N|1 N|1 0|1. \
     0.|1 0.|1 0|1. 1.|1 1|1. 1.|1. 1|1. 1.|1. 1.|1 1.|1 1|1."
    keep;
  let drop_io, drop = sorted External_sort.Drop_duplicates in
  Alcotest.(check io) "drop: io" (69, 69, 49) drop_io;
  Alcotest.(check string) "drop: rows"
    "N|N 0.|N 1|N N|0. 0|0. 1.|0 N|1 0|1. 1.|1" drop

let suites =
  [
    ( "storage.pager",
      [
        Alcotest.test_case "counters" `Quick test_pager_counters;
        Alcotest.test_case "lru eviction" `Quick test_pager_lru;
        Alcotest.test_case "rescan fits in pool" `Quick
          test_pager_repeated_scan_fits;
        Alcotest.test_case "rescan thrashes" `Quick
          test_pager_repeated_scan_thrashes;
        Alcotest.test_case "validation" `Quick test_pager_validation;
      ] );
    ( "storage.heap_file",
      [
        Alcotest.test_case "round trip" `Quick test_heap_file_roundtrip;
        Alcotest.test_case "partial page" `Quick test_heap_file_partial_page;
        Alcotest.test_case "arity check" `Quick test_heap_file_arity_check;
      ] );
    ( "storage.external_sort",
      [
        Alcotest.test_case "small inputs" `Quick test_external_sort_small;
        Alcotest.test_case "multipass" `Quick test_external_sort_multipass;
        Alcotest.test_case "io shape" `Quick test_external_sort_io_shape;
        QCheck_alcotest.to_alcotest prop_sort_matches_list_sort;
        QCheck_alcotest.to_alcotest prop_sort_mixed_ties;
        Alcotest.test_case "pinned mixed-tie order" `Quick
          test_external_sort_pinned_ties;
      ] );
    ( "storage.btree",
      [
        Alcotest.test_case "lookup" `Quick test_index_lookup;
        Alcotest.test_case "null keys excluded" `Quick
          test_index_null_keys_excluded;
        Alcotest.test_case "build and probe I/O accounting" `Quick
          test_index_build_costs_io;
        Alcotest.test_case "multi-level tree" `Quick test_btree_multi_level;
        Alcotest.test_case "range probes" `Quick test_btree_range;
        Alcotest.test_case "empty relation" `Quick test_btree_empty;
      ] );
    ( "storage.stats",
      [
        Alcotest.test_case "column stats" `Quick test_stats_columns;
        Alcotest.test_case "selectivity" `Quick test_stats_selectivity;
        Alcotest.test_case "collection is I/O-free" `Quick test_stats_io_free;
      ] );
    ( "storage.catalog",
      [
        Alcotest.test_case "basics" `Quick test_catalog_basics;
        Alcotest.test_case "sorted_on metadata" `Quick test_catalog_sorted_on;
      ] );
  ]
