(* External (B-1)-way merge sort over heap files.

   Matches the cost regime the paper assumes for sorting a P-page relation
   with B buffer pages: one pass to form sorted runs of B pages, then
   (B-1)-way merge passes — 2·P·log_{B-1}(P) page I/Os in total.  Optionally
   removes full-row duplicates during merging, which is how the paper's
   "projection with duplicates removed" (TEMP1) is produced in join-column
   order for free.

   CPU cost: pass 0 sorts each run as an array; a merge keeps its k run
   cursors in a binary min-heap ordered by (current row, run index), so
   picking each output row costs O(log k) comparisons rather than a scan of
   all k cursors.  The run index breaks ties between equal rows, earlier
   run first, which fixes the output order of [compare]-equal rows (Int 1
   vs Float 1.0) and hence which one [Drop_duplicates] keeps.  Neither
   changes a page access: reads, writes and their order are those of the
   plain (B-1)-way algorithm. *)

module Value = Relalg.Value
module Row = Relalg.Row

type dedup = Keep_duplicates | Drop_duplicates

(* Sort [input] by the column positions [key] (full-row order as tiebreak,
   which makes duplicate elimination a simple adjacent-equality check).
   Returns a fresh heap file; the input file is left intact. *)
let sort pager ?(dedup = Keep_duplicates) ~key (input : Heap_file.t) :
    Heap_file.t =
  let schema = Heap_file.schema input in
  let key = Array.of_list key in
  let nkey = Array.length key in
  let compare_rows (a : Row.t) (b : Row.t) =
    let rec go i =
      if i = nkey then Row.compare a b
      else
        let k = key.(i) in
        let c = Value.compare a.(k) b.(k) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let b = Pager.buffer_pages pager in
  let rows_per_page =
    max 1 (Pager.page_bytes pager / Relalg.Schema.tuple_width_estimate schema)
  in
  let run_capacity = b * rows_per_page in
  (* Pass 0: form sorted runs of at most B pages.  [rows] is the reversed
     read order; the array is sized by the rows actually read, since a
     [run_capacity] buffer is a major-heap allocation even for tiny
     inputs. *)
  let runs = ref [] in
  let emit_run rows =
    let run = Heap_file.create pager schema in
    let sorted = Array.of_list rows in
    Array.stable_sort compare_rows sorted;
    Array.iter (Heap_file.append run) sorted;
    Heap_file.flush run;
    runs := run :: !runs
  in
  let next = Heap_file.scan input in
  let rec fill acc n =
    if n >= run_capacity then begin
      emit_run acc;
      fill [] 0
    end
    else
      match next () with
      | Some r -> fill (r :: acc) (n + 1)
      | None -> if acc <> [] then emit_run acc
  in
  fill [] 0;
  if !runs = [] then emit_run [];
  (* Merge passes: (B-1)-way. *)
  let merge_group (group : Heap_file.t list) : Heap_file.t =
    let out = Heap_file.create pager schema in
    let scans = Array.of_list (List.map Heap_file.scan group) in
    let k = Array.length scans in
    (* [heads.(r)] is run [r]'s current row; [heap.(0 .. !size-1)] holds
       the runs not yet exhausted, least (row, run) at the root. *)
    let heads = Array.make k [||] in
    let heap = Array.make k 0 in
    let size = ref 0 in
    let less r s =
      let c = compare_rows heads.(r) heads.(s) in
      c < 0 || (c = 0 && r < s)
    in
    let rec sift_down i =
      let l = (2 * i) + 1 in
      if l < !size then begin
        let r = l + 1 in
        let child =
          if r < !size && less heap.(r) heap.(l) then r else l
        in
        if less heap.(child) heap.(i) then begin
          let tmp = heap.(i) in
          heap.(i) <- heap.(child);
          heap.(child) <- tmp;
          sift_down child
        end
      end
    in
    (* Prime every cursor in run order, as the first page reads. *)
    Array.iteri
      (fun r next ->
        match next () with
        | Some row ->
            heads.(r) <- row;
            heap.(!size) <- r;
            incr size
        | None -> ())
      scans;
    for i = (!size / 2) - 1 downto 0 do
      sift_down i
    done;
    let last_emitted = ref None in
    let emit row =
      let keep =
        match dedup, !last_emitted with
        | Keep_duplicates, _ -> true
        | Drop_duplicates, Some prev -> not (Row.equal prev row)
        | Drop_duplicates, None -> true
      in
      if keep then begin
        Heap_file.append out row;
        last_emitted := Some row
      end
    in
    while !size > 0 do
      let r = heap.(0) in
      emit heads.(r);
      (match scans.(r) () with
      | Some row -> heads.(r) <- row
      | None ->
          decr size;
          heap.(0) <- heap.(!size));
      sift_down 0
    done;
    Heap_file.flush out;
    List.iter Heap_file.delete group;
    out
  in
  let rec merge_all = function
    | [] -> assert false
    | [ single ] -> single
    | many ->
        let rec take n = function
          | rest when n = 0 -> ([], rest)
          | [] -> ([], [])
          | x :: rest ->
              let grp, rest' = take (n - 1) rest in
              (x :: grp, rest')
        in
        (* A 1-way "merge" never reduces the run count (a 2-page pool made
           this loop forever); two-way merging with overcommitted buffers
           is still correct, the pool just thrashes a little. *)
        let fan_in = max 2 (b - 1) in
        let rec pass acc = function
          | [] -> List.rev acc
          | runs ->
              let grp, rest = take fan_in runs in
              pass (merge_group grp :: acc) rest
        in
        merge_all (pass [] many)
  in
  (* Each merge pass eliminates duplicates within its group and the final
     pass sees every surviving row, so multi-pass dedup is global.  A lone
     run never goes through a merge, so it needs one explicit dedup pass. *)
  match List.rev !runs with
  | [ single ] when dedup = Drop_duplicates -> merge_group [ single ]
  | runs -> merge_all runs
