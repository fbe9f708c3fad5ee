(* Simulated disk + LRU buffer pool.

   The paper's evaluation metric is the number of disk page I/Os, with B
   pages of main-memory buffer available.  This module provides exactly that
   accounting: a "disk" of pages (arrays of rows), a buffer pool of at most
   [buffer_pages] frames with LRU replacement, and counters distinguishing
   logical page requests from physical reads (pool misses) and physical
   writes.  All operators perform their page traffic through a [Pager.t], so
   the benches can report measured I/O next to the paper's analytic
   formulas.

   The recency structure is a hashtable of frames threaded on an intrusive
   doubly-linked list (most recently used at the head), so a page touch —
   hit, miss or insertion — costs O(1) regardless of the pool size.  This
   matters for the measured experiments: with the earlier list-based LRU a
   page touch cost O(B), so enlarging the buffer pool made every *logical*
   read slower and wall-clock measurements conflated plan structure with
   bookkeeping overhead.

   Both the disk and the frame table are keyed by one int packing
   (file, page) and use a monomorphic hashtable with an inline arithmetic
   hash, so a page touch pays neither OCaml's generic structural hash nor
   its polymorphic compare. *)

module Row = Relalg.Row

type file_id = int

type page = Row.t array

(* [(file lsl 32) lor page]; pages of a file are numbered below 2^32. *)
type key = int

let page_bits = 32

let key file i = (file lsl page_bits) lor i

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* The table indexes buckets by the low bits: the page number plus the
     file id spread by an odd multiplier. *)
  let hash k = ((k lsr page_bits) * 0x9E3779B1 + k) land max_int
end)

type stats = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
}

(* A buffer frame, intrusively linked in recency order.  [prev] is toward
   the MRU end, [next] toward the LRU end. *)
type frame = {
  f_key : key;
  f_page : page;
  mutable prev : frame option;
  mutable next : frame option;
}

type t = {
  buffer_pages : int;
  page_bytes : int;
  disk : page Int_tbl.t;
  frames : frame Int_tbl.t;
  mutable mru : frame option; (* most recently used *)
  mutable lru_end : frame option; (* least recently used *)
  mutable n_frames : int;
  stats : stats;
  mutable next_file : file_id;
  file_pages : int ref Int_tbl.t;
}

let create ?(buffer_pages = 8) ?(page_bytes = 4096) () =
  if buffer_pages < 2 then invalid_arg "Pager.create: need at least 2 buffer pages";
  {
    buffer_pages;
    page_bytes;
    disk = Int_tbl.create 256;
    frames = Int_tbl.create (2 * buffer_pages);
    mru = None;
    lru_end = None;
    n_frames = 0;
    stats = { logical_reads = 0; physical_reads = 0; physical_writes = 0 };
    next_file = 0;
    file_pages = Int_tbl.create 16;
  }

let buffer_pages t = t.buffer_pages
let page_bytes t = t.page_bytes
let stats t = t.stats
let resident_pages t = t.n_frames
let stored_pages t = Int_tbl.length t.disk

let reset_stats t =
  t.stats.logical_reads <- 0;
  t.stats.physical_reads <- 0;
  t.stats.physical_writes <- 0

(* Snapshot/restore used by benches to measure a single phase. *)
let snapshot t = (t.stats.logical_reads, t.stats.physical_reads, t.stats.physical_writes)

let diff_since t (lr, pr, pw) =
  {
    logical_reads = t.stats.logical_reads - lr;
    physical_reads = t.stats.physical_reads - pr;
    physical_writes = t.stats.physical_writes - pw;
  }

let total_io s = s.physical_reads + s.physical_writes

let pp_stats ppf s =
  Fmt.pf ppf "logical=%d physical_reads=%d physical_writes=%d total_io=%d"
    s.logical_reads s.physical_reads s.physical_writes (total_io s)

(* Run [f] without perturbing the I/O counters (catalog-internal work such
   as statistics collection, which a real system would amortize). *)
let without_accounting t f =
  let saved = (t.stats.logical_reads, t.stats.physical_reads, t.stats.physical_writes) in
  Fun.protect f ~finally:(fun () ->
      let lr, pr, pw = saved in
      t.stats.logical_reads <- lr;
      t.stats.physical_reads <- pr;
      t.stats.physical_writes <- pw)

let create_file t =
  let id = t.next_file in
  t.next_file <- id + 1;
  Int_tbl.replace t.file_pages id (ref 0);
  id

let page_count t file =
  match Int_tbl.find_opt t.file_pages file with
  | Some r -> !r
  | None -> invalid_arg "Pager.page_count: unknown file"

(* ---- intrusive recency list ---------------------------------------- *)

let unlink t fr =
  (match fr.prev with
  | Some p -> p.next <- fr.next
  | None -> t.mru <- fr.next);
  (match fr.next with
  | Some n -> n.prev <- fr.prev
  | None -> t.lru_end <- fr.prev);
  fr.prev <- None;
  fr.next <- None

let push_front t fr =
  fr.prev <- None;
  fr.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some fr | None -> t.lru_end <- Some fr);
  t.mru <- Some fr

let evict_beyond_capacity t =
  while t.n_frames > t.buffer_pages do
    match t.lru_end with
    | None -> assert false (* n_frames > 0 implies a tail *)
    | Some victim ->
        unlink t victim;
        Int_tbl.remove t.frames victim.f_key;
        t.n_frames <- t.n_frames - 1
  done

(* The write-through policy means eviction never incurs I/O (no dirty
   pages). *)
let insert_frame t key page =
  (match Int_tbl.find_opt t.frames key with
  | Some old ->
      unlink t old;
      Int_tbl.remove t.frames key;
      t.n_frames <- t.n_frames - 1
  | None -> ());
  let fr = { f_key = key; f_page = page; prev = None; next = None } in
  Int_tbl.replace t.frames key fr;
  push_front t fr;
  t.n_frames <- t.n_frames + 1;
  evict_beyond_capacity t

let read_page t file i : page =
  if i lsr page_bits <> 0 then invalid_arg "Pager.read_page: no such page";
  let key = key file i in
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  match Int_tbl.find_opt t.frames key with
  | Some fr ->
      (match t.mru with
      | Some m when m == fr -> () (* already most recent *)
      | _ ->
          unlink t fr;
          push_front t fr);
      fr.f_page
  | None -> (
      match Int_tbl.find_opt t.disk key with
      | None -> invalid_arg "Pager.read_page: no such page"
      | Some page ->
          t.stats.physical_reads <- t.stats.physical_reads + 1;
          insert_frame t key page;
          page)

let append_page t file (rows : Row.t array) =
  let counter =
    match Int_tbl.find_opt t.file_pages file with
    | Some r -> r
    | None -> invalid_arg "Pager.append_page: unknown file"
  in
  let i = !counter in
  incr counter;
  let key = key file i in
  Int_tbl.replace t.disk key rows;
  t.stats.physical_writes <- t.stats.physical_writes + 1;
  insert_frame t key rows

let delete_file t file =
  let n = page_count t file in
  for i = 0 to n - 1 do
    let key = key file i in
    Int_tbl.remove t.disk key;
    match Int_tbl.find_opt t.frames key with
    | None -> ()
    | Some fr ->
        unlink t fr;
        Int_tbl.remove t.frames key;
        t.n_frames <- t.n_frames - 1
  done;
  Int_tbl.remove t.file_pages file
