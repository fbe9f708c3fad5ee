(* EXPLAIN / EXPLAIN ANALYZE rendering and per-operator instrumentation.

   Rendering is annotation-driven: the caller supplies lookup functions for
   planner estimates and for runtime metrics, keyed by plan node (physical
   identity — a plan's subterms are built once, so [==] identifies an
   operator).  The estimate side lives in [Optimizer.Estimate]; the metrics
   side is produced here by an observer threaded through [Plan.execute].

   The observer also doubles as the trace emitter: with a sink installed it
   writes one JSON line per operator open / next-batch / close, the offline
   analogue of the rendered tree (schema in docs/EXPLAIN.md). *)

module Pager = Storage.Pager
module Json = Relalg.Json

type est = { est_rows : float; est_cost : float; est_passes : float option }

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(* Cumulative counters grow monotonically, so flushing a batch line every
   [trace_batch] next calls bounds trace volume at ~1/256 of row volume. *)
let trace_batch = 256

type session = {
  pager : Pager.t;
  trace : (string -> unit) option;
  mutable entries : (Plan.node * Metrics.t) list; (* keyed by [==] *)
  mutable fresh_id : int;
}

let session ?trace pager = { pager; trace; entries = []; fresh_id = 0 }

let metrics s node =
  List.find_map
    (fun (n, m) -> if n == node then Some m else None)
    s.entries

(* Events are built only when a sink is installed. *)
let emit s event =
  match s.trace with
  | Some out -> out (Json.to_string (event ()))
  | None -> ()

let open_event id node (m : Metrics.t) () =
  Json.Obj
    [
      ("ev", Str "open");
      ("id", Int id);
      ("op", Str (Plan.label node));
      ("build_ms", Float (m.build_s *. 1e3));
    ]

let batch_event id (m : Metrics.t) () =
  Json.Obj
    [
      ("ev", Str "batch");
      ("id", Int id);
      ("rows", Int m.rows);
      ("next_calls", Int m.next_calls);
    ]

let close_event id (m : Metrics.t) () =
  Json.Obj
    [
      ("ev", Str "close");
      ("id", Int id);
      ("rows", Int m.rows);
      ("next_calls", Int m.next_calls);
      ("ms", Float (Metrics.total_s m *. 1e3));
      ("logical_reads", Int m.logical_reads);
      ("physical_reads", Int m.physical_reads);
      ("physical_writes", Int m.physical_writes);
    ]

let count_pass (m : Metrics.t) () = m.passes <- m.passes + 1

let observer (s : session) : Plan.observer =
 fun node build ->
  let m = Metrics.create () in
  s.entries <- (node, m) :: s.entries;
  let id = s.fresh_id in
  s.fresh_id <- id + 1;
  let before = Pager.snapshot s.pager in
  let t0 = Unix.gettimeofday () in
  let it = build ~on_pass:(count_pass m) in
  m.Metrics.build_s <- Unix.gettimeofday () -. t0;
  Metrics.add_io m (Pager.diff_since s.pager before);
  emit s (open_event id node m);
  let closed = ref false in
  let next () =
    let before = Pager.snapshot s.pager in
    let t0 = Unix.gettimeofday () in
    let r = it.Iterator.next () in
    m.Metrics.next_s <- m.Metrics.next_s +. (Unix.gettimeofday () -. t0);
    Metrics.add_io m (Pager.diff_since s.pager before);
    m.Metrics.next_calls <- m.Metrics.next_calls + 1;
    (match r with
    | Some _ ->
        m.Metrics.rows <- m.Metrics.rows + 1;
        if m.Metrics.next_calls mod trace_batch = 0 then
          emit s (batch_event id m)
    | None ->
        if not !closed then begin
          closed := true;
          emit s (close_event id m)
        end);
    r
  in
  { it with Iterator.next }

(* Vectorized-engine observer: the same protocol over [next_batch].  One
   timer pair and one pager snapshot per *batch*, not per row — the
   amortization that keeps instrumentation overhead from dwarfing the
   vectorized loops ([rows] still counts individual selected rows). *)
let observer_vec (s : session) : Plan.vec_observer =
 fun node build ->
  let m = Metrics.create () in
  s.entries <- (node, m) :: s.entries;
  let id = s.fresh_id in
  s.fresh_id <- id + 1;
  let before = Pager.snapshot s.pager in
  let t0 = Unix.gettimeofday () in
  let v = build ~on_pass:(count_pass m) in
  m.Metrics.build_s <- Unix.gettimeofday () -. t0;
  Metrics.add_io m (Pager.diff_since s.pager before);
  emit s (open_event id node m);
  let closed = ref false in
  let next_batch () =
    let before = Pager.snapshot s.pager in
    let t0 = Unix.gettimeofday () in
    let r = v.Vec.next_batch () in
    m.Metrics.next_s <- m.Metrics.next_s +. (Unix.gettimeofday () -. t0);
    Metrics.add_io m (Pager.diff_since s.pager before);
    m.Metrics.next_calls <- m.Metrics.next_calls + 1;
    (match r with
    | Some b ->
        m.Metrics.rows <- m.Metrics.rows + Batch.live b;
        m.Metrics.batches <- m.Metrics.batches + 1;
        emit s (batch_event id m)
    | None ->
        if not !closed then begin
          closed := true;
          emit s (close_event id m)
        end);
    r
  in
  { v with Vec.next_batch }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let no_est : Plan.node -> est option = fun _ -> None

(* Metrics of the children that were instrumented (a nested-loop or index
   join's base-table scan is driven by the join itself and has none). *)
let child_metrics lookup node =
  List.filter_map lookup (Plan.children node)

let actual_suffix lookup node =
  match lookup node with
  | None -> "  (actual: -)"
  | Some m ->
      let l, pr, pw = Metrics.self_io m ~children:(child_metrics lookup node) in
      let batches =
        if m.Metrics.batches = 0 then ""
        else Printf.sprintf " batches=%d" m.Metrics.batches
      in
      let passes =
        match node with
        | Plan.Band_agg _ -> Printf.sprintf " passes=%d" m.Metrics.passes
        | _ -> ""
      in
      Printf.sprintf
        "  (actual: rows=%d next=%d rows/call=%.1f%s time=%.2fms io=%d/%d/%d%s"
        m.Metrics.rows m.Metrics.next_calls (Metrics.rows_per_call m) batches
        (Metrics.total_s m *. 1e3)
        l pr pw passes
      ^ ")"

let est_suffix estimate node =
  match estimate node with
  | None -> ""
  | Some e ->
      Printf.sprintf "  (cost=%.1f rows=%.0f%s)" e.est_cost e.est_rows
        (match e.est_passes with
        | Some p -> Printf.sprintf " passes=%.0f" p
        | None -> "")

let render ?(estimate = no_est) ?metrics ?(indent = 0) node =
  let buf = Buffer.create 256 in
  let rec go indent node =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf (Plan.label node);
    Buffer.add_string buf (est_suffix estimate node);
    (match metrics with
    | None -> ()
    | Some lookup -> Buffer.add_string buf (actual_suffix lookup node));
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) (Plan.children node)
  in
  go indent node;
  Buffer.contents buf

let render_json ?(estimate = no_est) ?metrics node =
  let rec go node =
    let est =
      match estimate node with
      | None -> []
      | Some e ->
          [
            ("est_cost", Json.Float e.est_cost); ("est_rows", Float e.est_rows);
          ]
          @ Option.fold ~none:[]
              ~some:(fun p -> [ ("est_passes", Json.Float p) ])
              e.est_passes
    in
    let actual =
      match metrics with
      | None -> []
      | Some lookup -> (
          match lookup node with
          | None -> []
          | Some m ->
              let l, pr, pw =
                Metrics.self_io m ~children:(child_metrics lookup node)
              in
              let passes =
                match node with
                | Plan.Band_agg _ -> [ ("passes", Json.Int m.Metrics.passes) ]
                | _ -> []
              in
              [
                ( "actual",
                  Json.Obj
                    ([
                       ("rows", Json.Int m.Metrics.rows);
                       ("next_calls", Int m.Metrics.next_calls);
                       ("rows_per_call", Float (Metrics.rows_per_call m));
                       ("batches", Int m.Metrics.batches);
                       ("build_ms", Float (m.Metrics.build_s *. 1e3));
                       ("total_ms", Float (Metrics.total_s m *. 1e3));
                       ("logical_reads", Int m.Metrics.logical_reads);
                       ("physical_reads", Int m.Metrics.physical_reads);
                       ("physical_writes", Int m.Metrics.physical_writes);
                       ("self_logical_reads", Int l);
                       ("self_physical_reads", Int pr);
                       ("self_physical_writes", Int pw);
                     ]
                    @ passes) );
              ])
    in
    Json.Obj
      ((("op", Json.Str (Plan.label node)) :: est)
      @ actual
      @ [ ("children", List (List.map go (Plan.children node))) ])
  in
  go node
