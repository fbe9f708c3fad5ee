(* Shared test fixtures: the Kiessling count-bug database loaded into a
   fresh [Core.db], used by the vectorized, server and batched suites so
   every suite exercises the same catalog (and the helpers live in one
   place instead of three). *)

module Relation = Relalg.Relation
module F = Workload.Fixtures

(* Define a stored table from an in-memory relation. *)
let define_fixture db name rel =
  Core.define_table db name
    (List.map
       (fun (c : Core.Schema.column) -> (c.Core.Schema.name, c.Core.Schema.ty))
       (Core.Schema.columns (Relation.schema rel)))
    (List.map Relalg.Row.to_list (Relation.rows rel))

(* A fresh database holding the Kiessling PARTS/SUPPLY tables (the
   count-bug fixture).  Tiny pages by default so paging paths are hit. *)
let count_bug_db ?(buffer_pages = 8) ?(page_bytes = 256) () =
  let db = Core.create_db ~buffer_pages ~page_bytes () in
  define_fixture db "PARTS" F.kiessling_parts;
  define_fixture db "SUPPLY" F.kiessling_supply;
  db

(* The canonical type-JA count-bug query (Kiessling's Q2). *)
let count_bug_query =
  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
   WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')"

(* A type-JA query over an inequality correlation (Kim's Q5 shape). *)
let max_quan_query =
  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE \
   SUPPLY.PNUM < PARTS.PNUM)"

(* String literals full of what a JSON printer must escape or pass through
   untouched: double quote, backslash, tab, newline, other control bytes
   and multi-byte UTF-8.  No single quote, so a literal splices into SQL
   (and shows up in plan labels) verbatim. *)
let hostile_literal =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 1 8)
         (oneofl
            [ "a"; "Z"; "7"; " "; "\""; "\\"; "\t"; "\n"; "\r"; "\001";
              "\031"; "\127"; "é"; "€"; "日本"; "𝄞" ])))

(* [line] is valid JSON, and printing its value parses back to it. *)
let json_round_trips line =
  match Relalg.Json.parse line with
  | Ok j -> Relalg.Json.(parse (to_string j)) = Ok j
  | Error _ -> false

(* A type-J query on the kim fixture whose pushed-down filter carries
   [lit]; [lit = "café"] is the shape that broke the trace printer. *)
let cafe_query lit =
  Printf.sprintf
    "SELECT PNO FROM P WHERE CITY <> '%s' AND PNO IN (SELECT PNO FROM SP \
     WHERE SP.ORIGIN = P.CITY)"
    lit
