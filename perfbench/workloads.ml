(* The three workloads' inputs, all derived from the seed: generated
   tables and SQL text, which is all the program sees.

   - outofcore_report: the paper's PARTS/SUPPLY shapes over tables about
     30 times larger than the buffer pool (§7's regime).
   - adhoc_oneshot: a stream of distinct generated statements over tiny
     tables with NULLs, each paying the whole per-statement pipeline.
   - server_hot: a fixed statement set served by [nestsql serve] with a
     B-tree on SUPPLY.PNUM and a small, periodically replaced HOT table. *)

module Value = Relalg.Value
module Relation = Relalg.Relation

type table = {
  name : string;
  columns : (string * Value.ty) list;
  rows : Value.t list list;
}

type stmt = { label : string; sql : string }

let relation t = Relation.of_values ~rel:t.name t.columns t.rows

let define db t = Core.define_table db t.name t.columns t.rows

(* A digest of the tables' contents: the reference-cache key prefix. *)
let fingerprint tables =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      Buffer.add_string b t.name;
      List.iter
        (fun row ->
          List.iter
            (fun v ->
              Buffer.add_string b (Measure.cell v);
              Buffer.add_char b ',')
            row;
          Buffer.add_char b '\n')
        t.rows)
    tables;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rng_for ~seed ~salt = Random.State.make [| seed; salt |]
let int_in rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let date rng =
  Value.Date
    { year = int_in rng 1975 1984; month = int_in rng 1 12; day = int_in rng 1 28 }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] distinct keys drawn from [1, range]. *)
let distinct_keys rng ~n ~range =
  Array.to_list (Array.sub (shuffle rng (Array.init range (fun i -> i + 1))) 0 n)

let parts_columns = [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]

let supply_columns =
  [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]

(* PARTS with [n_parts] distinct PNUMs, one drawn from each of [n_parts]
   equal strata of [1, key_range], and QOH cycling through 0..24 in
   shuffled order: the seed moves individual values but not the key
   spread or the QOH histogram, which set the statements' costs.  SUPPLY's
   PNUMs are uniform over [1, supply_range], so parts above
   [supply_range] have no supply rows (the COUNT bug's trigger). *)
let parts_supply rng ~n_parts ~key_range ~n_supply ~supply_range =
  let keys =
    List.init n_parts (fun i ->
        let lo = (i * key_range / n_parts) + 1 in
        let hi = (i + 1) * key_range / n_parts in
        int_in rng lo hi)
  in
  let qoh = shuffle rng (Array.init n_parts (fun i -> i mod 25)) in
  let parts = List.mapi (fun i k -> [ Value.Int k; Value.Int qoh.(i) ]) keys in
  let supply =
    List.init n_supply (fun _ ->
        [
          Value.Int (int_in rng 1 supply_range);
          Value.Int (int_in rng 0 24);
          date rng;
        ])
  in
  [
    { name = "PARTS"; columns = parts_columns; rows = parts };
    { name = "SUPPLY"; columns = supply_columns; rows = supply };
  ]

(* ---------------- outofcore_report ---------------------------------- *)

(* 150 PARTS and 20 000 SUPPLY rows: about 2 000 pages of 256 B against a
   64-page pool.  PARTS is smaller than the paper's because the nested
   iteration reference re-reads SUPPLY once per PARTS row for every
   statement; see perfbench/README.md. *)
let outofcore_buffer_pages = 64
let outofcore_page_bytes = 256

let outofcore_tables ~seed =
  parts_supply (rng_for ~seed ~salt:1) ~n_parts:150 ~key_range:1100
    ~n_supply:20_000 ~supply_range:1000

let outofcore_stmts =
  [
    {
      label = "type-N";
      sql =
        "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
         QUAN >= 5)";
    };
    {
      label = "type-J";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
         SUPPLY.PNUM = PARTS.PNUM)";
    };
    {
      label = "type-A";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
         WHERE SHIPDATE < '1-1-80')";
    };
    {
      label = "Q2-count";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
         SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')";
    };
    {
      label = "Q5-noneq";
      sql =
        "SELECT PNUM FROM PARTS WHERE PNUM <= 300 AND QOH = (SELECT MAX(QUAN) \
         FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < '1-1-80')";
    };
    {
      label = "JA-max";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM)";
    };
    {
      label = "not-exists";
      sql =
        "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT * FROM SUPPLY WHERE \
         SUPPLY.PNUM = PARTS.PNUM AND QUAN >= 22)";
    };
    {
      label = "all";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH > ALL (SELECT QUAN FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM)";
    };
    {
      label = "any";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH < ANY (SELECT QUAN FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN >= 20)";
    };
  ]

(* ---------------- adhoc_oneshot ------------------------------------- *)

(* 30 PARTS and 90 SUPPLY rows over key range 10, with 10 % NULLs in
   every column, and a stream of distinct statements from the
   differential oracle's generator (Kim's N/A/J/JA, two-level, flat,
   EXISTS/ANY/ALL/NOT IN, ORDER BY).

   Which statements return a wrong multiplicity (the NEST-N-J duplicates
   residue, counted in [failed]) depends on the statement and the data
   together, so a stream drawn afresh for each seed fails a different
   number of operations per pass.  The tables' contents and the set of
   statements are therefore drawn once, from a fixed generator seed; the
   run's seed permutes the rows of each table and the order of the
   stream.  Neither changes an answer as a bag, so every seed fails the
   same operations, and the seed still decides the order in which the
   pipeline meets the statements and the tables meet the pager. *)
let adhoc_stream_length = 1200
let adhoc_pool_seed = 0

let permute rng l = Array.to_list (shuffle rng (Array.of_list l))

let adhoc_pool_tables () =
  let rng = rng_for ~seed:adhoc_pool_seed ~salt:2 in
  let column n ~nulls value =
    shuffle rng
      (Array.init n (fun i -> if i < nulls then Value.Null else value i))
  in
  let rows n columns =
    List.init n (fun i -> List.map (fun (c : Value.t array) -> c.(i)) columns)
  in
  let int_column n ~modulo ~base =
    column n ~nulls:(n / 10) (fun i -> Value.Int (base + (i mod modulo)))
  in
  let dates =
    column 90 ~nulls:9 (fun i ->
        Value.Date { year = 1975 + (i mod 10); month = int_in rng 1 12; day = int_in rng 1 28 })
  in
  [
    {
      name = "PARTS";
      columns = parts_columns;
      rows = rows 30 [ int_column 30 ~modulo:10 ~base:1; int_column 30 ~modulo:5 ~base:0 ];
    };
    {
      name = "SUPPLY";
      columns = supply_columns;
      rows =
        rows 90
          [ int_column 90 ~modulo:10 ~base:1; int_column 90 ~modulo:10 ~base:0; dates ];
    };
  ]

let adhoc_tables ~seed =
  let rng = rng_for ~seed ~salt:2 in
  List.map (fun t -> { t with rows = permute rng t.rows }) (adhoc_pool_tables ())

let adhoc_pool_stmts () =
  let rng = rng_for ~seed:adhoc_pool_seed ~salt:3 in
  let seen = Hashtbl.create 1024 in
  let rec draw acc n tries =
    if n = adhoc_stream_length || tries = 50 * adhoc_stream_length then
      List.rev acc
    else
      let sql = Oracle.Gen.query rng in
      if Hashtbl.mem seen sql then draw acc n (tries + 1)
      else begin
        Hashtbl.add seen sql ();
        draw ({ label = ""; sql } :: acc) (n + 1) (tries + 1)
      end
  in
  draw [] 0 0

let adhoc_stmts ~seed = permute (rng_for ~seed ~salt:3) (adhoc_pool_stmts ())

(* ---------------- server_hot ---------------------------------------- *)

let server_buffer_pages = 4096
let server_page_bytes = 256
let server_index = ("SUPPLY", "PNUM")

let hot_columns = [ ("HNUM", Value.Tint); ("HQ", Value.Tint) ]

(* 500 PARTS, 5 000 SUPPLY and two 32-row versions of HOT that the load
   generator swaps in alternately. *)
let server_tables ~seed =
  let rng = rng_for ~seed ~salt:4 in
  let base =
    parts_supply rng ~n_parts:500 ~key_range:500 ~n_supply:5000
      ~supply_range:500
  in
  let hot () =
    {
      name = "HOT";
      columns = hot_columns;
      rows =
        List.map
          (fun k -> [ Value.Int k; Value.Int (int_in rng 0 12) ])
          (distinct_keys rng ~n:32 ~range:500);
    }
  in
  let hot_a = hot () in
  let hot_b = hot () in
  (base, hot_a, hot_b)

let server_stmts =
  [
    {
      label = "hot-count";
      sql =
        "SELECT HNUM FROM HOT WHERE HQ = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
         WHERE SUPPLY.PNUM = HOT.HNUM AND SHIPDATE < '1-1-80')";
    };
    {
      label = "parts-count";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
         SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')";
    };
    {
      label = "hot-max";
      sql =
        "SELECT HNUM FROM HOT WHERE HQ = (SELECT MAX(QUAN) FROM SUPPLY WHERE \
         SUPPLY.PNUM = HOT.HNUM)";
    };
    {
      label = "parts-max";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM)";
    };
    {
      label = "hot-exists";
      sql =
        "SELECT HNUM FROM HOT WHERE EXISTS (SELECT * FROM SUPPLY WHERE \
         SUPPLY.PNUM = HOT.HNUM AND QUAN >= 20)";
    };
    {
      label = "parts-not-exists";
      sql =
        "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT * FROM SUPPLY WHERE \
         SUPPLY.PNUM = PARTS.PNUM AND QUAN >= 20)";
    };
    {
      label = "hot-min";
      sql =
        "SELECT HNUM FROM HOT WHERE HQ <= (SELECT MIN(QUAN) FROM SUPPLY \
         WHERE SUPPLY.PNUM = HOT.HNUM)";
    };
    {
      label = "parts-count-star";
      sql =
        "SELECT PNUM FROM PARTS WHERE QOH >= (SELECT COUNT(*) FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM)";
    };
  ]
