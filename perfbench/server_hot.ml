(* server_hot: [nestsql serve] in its own process on a Unix-domain socket
   (buffer pool larger than the data, B-tree on SUPPLY.PNUM), driven by
   two closed-loop client connections from this process.  Every statement
   runs with mode hybrid and engine vectorized; about one request in 100
   is a [load] that replaces HOT with the other of two pre-generated
   versions, which drops every cached plan.

   An answer is checked against nested iteration over the HOT version(s)
   that can have been in place while it ran: the loads applied when it
   was sent, up to the loads issued when its response arrived. *)

module P = Server.Protocol

let load_every = 100
let clients = 2

(* ---------------- the server process -------------------------------- *)

type server = { pid : int; out : in_channel }

let running : server option ref = ref None

let stop_server () =
  match !running with
  | None -> ()
  | Some s ->
      running := None;
      (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
      close_in_noerr s.out

let () = at_exit stop_server

let start_server ~nestsql ~data_dir ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let table, column = Workloads.server_index in
  let args =
    [|
      nestsql; "serve"; "-d"; "none"; "-D"; data_dir;
      "-B"; string_of_int Workloads.server_buffer_pages;
      "--page-bytes"; string_of_int Workloads.server_page_bytes;
      "-i"; table ^ "." ^ column; "--socket"; socket;
    |]
  in
  let pid = Unix.create_process nestsql args Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  running := Some { pid; out };
  match input_line out with
  | line when Inproc.contains line "listening" -> pid
  | _ | (exception End_of_file) ->
      stop_server ();
      failwith "nestsql serve did not start"

(* Generate the tables, write them as CSV and start a server over them. *)
let setup ~nestsql ~seed ~work_dir =
  let base, hot_a, hot_b = Workloads.server_tables ~seed in
  let data_dir = Filename.concat work_dir "server_data" in
  Measure.mkdir_p data_dir;
  List.iter
    (fun (t : Workloads.table) ->
      Workload.Csv_writer.save_file
        (Filename.concat data_dir (t.name ^ ".csv"))
        (Workloads.relation t))
    (base @ [ hot_a ]);
  let socket = Filename.concat work_dir "srv.sock" in
  let pid = start_server ~nestsql ~data_dir ~socket in
  (pid, socket, base, hot_a, hot_b)

(* ---------------- clients ------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let roundtrip c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let disconnect c =
  (try ignore (roundtrip c "{\"op\":\"close\"}") with _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let query_line sql =
  P.to_string
    (P.Obj
       [
         ("op", P.Str "query");
         ("sql", P.Str sql);
         ("mode", P.Str "hybrid");
         ("engine", P.Str "vectorized");
       ])

let load_line (t : Workloads.table) =
  P.to_string
    (P.Obj
       [
         ("op", P.Str "load");
         ("table", P.Str t.name);
         ( "columns",
           P.List
             (List.map
                (fun (n, ty) -> P.List [ P.Str n; P.Str (Relalg.Value.type_name ty) ])
                t.columns) );
         ("rows", P.List (List.map (fun r -> P.List (List.map P.json_of_value r)) t.rows));
       ])

type sample = {
  client : int;
  stmt : int option; (* [None] for a load *)
  t0 : float;
  t1 : float;
  ok : bool;
  answer : Measure.answer option;
  via : string;
  cache : string;
  io : int * int * int;
  versions : int * int; (* loads applied: at least, at most *)
  factor : float; (* nominal over measured speed, for this chunk *)
}

let int_member name j =
  match P.member name j with Some (P.Int i) -> i | _ -> 0

let str_member name j =
  match P.member name j with Some (P.Str s) -> s | _ -> ""

let parse_response line =
  match P.parse line with
  | Error _ -> None
  | Ok j -> if P.member "ok" j = Some (P.Bool true) then Some j else None

let answer_of_response j =
  match P.member "rows" j with
  | Some (P.List rows) ->
      Some
        (Measure.answer_of_cells
           (List.map
              (function P.List cells -> List.map P.to_string cells | v -> [ P.to_string v ])
              rows))
  | _ -> None

(* Shared between the two client threads. *)
type traffic = {
  stmt_lines : string array;
  load_lines : string array; (* HOT version A, version B *)
  issued : int Atomic.t;
  loads_sent : int Atomic.t;
  loads_done : int Atomic.t;
  rngs : Random.State.t array; (* one per client *)
}

(* One client's closed loop until [deadline]; returns its samples.  The
   client walks the statements in a fresh shuffled order each round, so
   which statements the two clients run side by side is not locked in by
   their start. *)
let client_loop traffic ~client conn ~deadline =
  let n = Array.length traffic.stmt_lines in
  let rng = traffic.rngs.(client) in
  let order = Array.init n Fun.id and next = ref n in
  let samples = ref [] in
  while Measure.now () < deadline do
    if Atomic.fetch_and_add traffic.issued 1 mod load_every = load_every - 1
    then begin
      let v = Atomic.fetch_and_add traffic.loads_sent 1 + 1 in
      let t0 = Measure.now () in
      let resp = roundtrip conn traffic.load_lines.(v mod 2) in
      let t1 = Measure.now () in
      Atomic.incr traffic.loads_done;
      samples :=
        {
          client;
          stmt = None;
          t0;
          t1;
          ok = parse_response resp <> None;
          answer = None;
          via = "";
          cache = "";
          io = (0, 0, 0);
          versions = (v, v);
          factor = 1.;
        }
        :: !samples
    end
    else begin
      if !next = n then begin
        ignore (Workloads.shuffle rng order);
        next := 0
      end;
      let i = order.(!next) in
      incr next;
      let lo = Atomic.get traffic.loads_done in
      let t0 = Measure.now () in
      let resp = roundtrip conn traffic.stmt_lines.(i) in
      let t1 = Measure.now () in
      let hi = Atomic.get traffic.loads_sent in
      let sample =
        match parse_response resp with
        | None ->
            {
              client; stmt = Some i; t0; t1; ok = false; answer = None;
              via = ""; cache = ""; io = (0, 0, 0); versions = (lo, hi);
              factor = 1.;
            }
        | Some j ->
            let io =
              match P.member "io" j with
              | Some io ->
                  ( int_member "logical_reads" io,
                    int_member "physical_reads" io,
                    int_member "physical_writes" io )
              | None -> (0, 0, 0)
            in
            {
              client;
              stmt = Some i;
              t0;
              t1;
              ok = true;
              answer = answer_of_response j;
              via = str_member "strategy" j;
              cache = str_member "cache" j;
              io;
              versions = (lo, hi);
              factor = 1.;
            }
      in
      samples := sample :: !samples
    end
  done;
  !samples

(* Both clients for [seconds]; returns every sample and the elapsed time. *)
let drive_chunk traffic conns ~seconds =
  let start = Measure.now () in
  let deadline = start +. seconds in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun client ->
        Thread.create
          (fun () ->
            results.(client) <- client_loop traffic ~client conns.(client) ~deadline)
          ())
  in
  List.iter Thread.join threads;
  let samples = List.concat (Array.to_list results) in
  let stop = List.fold_left (fun acc s -> Float.max acc s.t1) start samples in
  (samples, stop -. start)

(* Traffic in chunks of at most half a second until the elapsed time, at
   nominal speed, reaches [seconds]; the clients pause between chunks
   while this process times the calibration kernel.  Returns the samples,
   each carrying its chunk's speed factor, the elapsed time at nominal
   speed and the kernel times. *)
let drive traffic conns ~seconds =
  let samples = ref [] and elapsed = ref 0. and scaled = ref 0. and cals = ref [] in
  while !scaled < seconds && !elapsed < 3. *. seconds do
    let cal = Measure.calibrate () in
    let factor = Measure.nominal_calibration_s /. cal in
    let chunk, dt =
      drive_chunk traffic conns
        ~seconds:(Float.min 0.5 ((seconds -. !scaled) /. factor))
    in
    samples := List.rev_append (List.map (fun s -> { s with factor }) chunk) !samples;
    elapsed := !elapsed +. dt;
    scaled := !scaled +. (dt *. factor);
    cals := cal :: !cals
  done;
  (!samples, !scaled, !cals)

type server_stats = {
  hits : int;
  misses : int;
  invalidations : int;
  query_count : int;
  query_ms : float;
  load_count : int;
  load_ms : float;
}

let stats conn =
  let j = Option.get (parse_response (roundtrip conn "{\"op\":\"stats\"}")) in
  let cache = Option.value (P.member "plan_cache" j) ~default:P.Null in
  let verb name =
    match Option.bind (P.member "verbs" j) (P.member name) with
    | Some v ->
        ( int_member "count" v,
          match P.member "total_ms" v with
          | Some (P.Float f) -> f
          | Some (P.Int i) -> float_of_int i
          | _ -> 0. )
    | None -> (0, 0.)
  in
  let query_count, query_ms = verb "query" and load_count, load_ms = verb "load" in
  {
    hits = int_member "hits" cache;
    misses = int_member "misses" cache;
    invalidations = int_member "invalidations" cache;
    query_count;
    query_ms;
    load_count;
    load_ms;
  }

(* ---------------- the run ------------------------------------------- *)

let setup_reps = 3

(* The server's configuration, in process, for the layer replay and the
   reference. *)
let replay_spec : Inproc.spec =
  {
    name = "server_hot";
    tables = (fun ~seed:_ -> []);
    stmts = (fun ~seed:_ -> Workloads.server_stmts);
    buffer_pages = Some Workloads.server_buffer_pages;
    page_bytes = Some Workloads.server_page_bytes;
    indexes = [ Workloads.server_index ];
    mode = Some Optimizer.Planner.Hybrid;
    engine = Some Exec.Plan.Vectorized;
  }

let replay_env tables : Inproc.env =
  let db =
    Core.create_db ?buffer_pages:replay_spec.buffer_pages
      ?page_bytes:replay_spec.page_bytes ()
  in
  List.iter (Workloads.define db) tables;
  List.iter (fun (table, column) -> Core.create_index db table ~column) replay_spec.indexes;
  { db; tables; stmts = Array.of_list Workloads.server_stmts }

let replay_reps = 10

let run ~nestsql ~seed ~seconds ~trace ~work_dir : Report.t =
  let setup_times = ref [] and last = ref None in
  for i = 1 to setup_reps do
    Gc.compact ();
    let cal = Measure.scaler () in
    let r, dt = Measure.timed (fun () -> setup ~nestsql ~seed ~work_dir) in
    setup_times := Measure.scale cal dt :: !setup_times;
    if i < setup_reps then stop_server ();
    last := Some r
  done;
  let pid, socket, base, hot_a, hot_b = Option.get !last in
  let stmts = Array.of_list Workloads.server_stmts in
  let traffic =
    {
      stmt_lines = Array.map (fun (s : Workloads.stmt) -> query_line s.sql) stmts;
      load_lines = [| load_line hot_a; load_line hot_b |];
      issued = Atomic.make 0;
      loads_sent = Atomic.make 0;
      loads_done = Atomic.make 0;
      rngs = Array.init clients (fun c -> Workloads.rng_for ~seed ~salt:(10 + c));
    }
  in
  let conns = Array.init clients (fun _ -> connect socket) in
  let control = connect socket in
  (* warm-up: fills the plan cache and the pool *)
  ignore (drive traffic conns ~seconds:(Float.min 1. (seconds /. 5.)));
  Measure.reset_peak_rss (Some pid);
  let before = stats control in
  let samples, elapsed, cals = drive traffic conns ~seconds in
  let speed = Measure.nominal_calibration_s /. Measure.median cals in
  let after = stats control in
  let peak_rss = Measure.peak_rss_mib (Some pid) in
  Array.iter disconnect conns;
  disconnect control;
  stop_server ();
  (try Sys.remove socket with Sys_error _ -> ());
  (* answers against nested iteration over each HOT version *)
  let ref_dir = Filename.concat work_dir "ref" in
  Measure.mkdir_p ref_dir;
  let references =
    Array.map
      (fun hot ->
        let env = replay_env (base @ [ hot ]) in
        let reference = Inproc.reference_of ~ref_dir env in
        Array.map (fun (s : Workloads.stmt) -> reference s.sql) stmts)
      [| hot_a; hot_b |]
  in
  let ops = List.length samples in
  let fops = float_of_int ops in
  let queries = List.filter (fun s -> s.stmt <> None) samples in
  List.iter
    (fun s ->
      let label =
        match s.stmt with Some i -> stmts.(i).Workloads.label | None -> "load"
      in
      let c = Report.count_class label in
      c.ops <- c.ops + 1;
      c.latencies_ms <- ((s.t1 -. s.t0) *. 1e3 *. s.factor) :: c.latencies_ms;
      match (s.stmt, s.answer) with
      | _ when not s.ok -> c.errors <- c.errors + 1
      | None, _ -> ()
      | Some _, None -> c.errors <- c.errors + 1
      | Some i, Some a ->
          let lo, hi = s.versions in
          let verdicts =
            List.init (hi - lo + 1) (fun k ->
                match references.((lo + k) mod 2).(i) with
                | Ok reference -> Measure.verdict ~reference a
                | Error _ -> Measure.Wrong)
          in
          if List.mem Measure.Same verdicts then ()
          else if List.mem Measure.Multiplicity verdicts then
            c.multiplicity <- c.multiplicity + 1
          else begin
            c.wrong <- c.wrong + 1;
            Report.line "wrong answer: %S (%d rows)" stmts.(i).sql a.card
          end)
    samples;
  let failed, wrong = Report.totals () in
  let sum3 f = List.fold_left (fun acc s -> acc + f s.io) 0 queries in
  let logical = float_of_int (sum3 (fun (l, _, _) -> l)) in
  let preads = float_of_int (sum3 (fun (_, r, _) -> r)) in
  let pwrites = float_of_int (sum3 (fun (_, _, w) -> w)) in
  let latency_ms = List.map (fun s -> (s.t1 -. s.t0) *. 1e3 *. s.factor) samples in
  Report.line "workload server_hot seed %d: %d statements, %d clients, %d \
               requests (%d loads) in %.3f s at nominal speed (measured \
               speed %.3f of nominal)"
    seed (Array.length stmts) clients ops
    (ops - List.length queries) elapsed speed;
  Report.print_classes ();
  Report.line "failed_frac = %.6f frac (%d of %d requests)"
    (Measure.ratio (float_of_int failed) fops) failed ops;
  Report.line "latency samples: %d (p50 and p90 are over all of them)" ops;
  let e2e =
    [
      Report.metric "setup_s" "s" (Measure.median !setup_times);
      Report.metric "ops_per_s" "1/s" (Measure.ratio fops elapsed);
      Report.metric "latency_p50_ms" "ms" (Measure.quantile latency_ms 0.5);
      Report.metric "latency_p90_ms" "ms" (Measure.quantile latency_ms 0.9);
      Report.metric "page_io_per_op" "pages/op"
        (Measure.ratio (preads +. pwrites) fops);
      Report.metric "peak_rss_mb" "MiB" peak_rss;
    ]
  in
  let correct = wrong = 0 in
  if not trace then { Report.correct; attempted = ops; failed; metrics = e2e }
  else begin
    List.iter
      (fun s ->
        Spans.add ~id:(Spans.fresh ()) ~parent:(-1) ~op:s.client
          ~name:(if s.stmt = None then "request.load" else "request.query")
          ~start:s.t0 ~stop:s.t1)
      samples;
    (* the layer replay, in process, over the server's configuration *)
    let env = replay_env (base @ [ hot_a ]) in
    let lt = Inproc.new_layer_totals () in
    let vias = Array.make (Array.length stmts) [] in
    let cal = Measure.scaler () in
    for rep = 1 to replay_reps do
      Array.iteri
        (fun i (s : Workloads.stmt) ->
          let r, dt, dt' =
            Inproc.traced_op replay_spec env.db lt ~op:((rep * 100) + i) s.sql
          in
          ignore (Measure.scale cal (dt +. dt'));
          match r with
          | Ok e -> vias.(i) <- Core.via_name e.Core.via :: vias.(i)
          | Error _ -> ())
        stmts
    done;
    Report.line "traced replay: %d operations, %d differ from Core.run in rung \
                 or bag"
      lt.ops lt.mismatches;
    let fresh = replay_env (base @ [ hot_a ]) in
    let qerrors = ref [] in
    Report.line "%-18s %-18s %-18s %10s %12s" "statement" "server rung"
      "in-process rung" "est_io" "measured_io";
    Array.iteri
      (fun i (s : Workloads.stmt) ->
        let mine =
          List.filter (fun x -> x.stmt = Some i && x.ok && fst x.versions mod 2 = 0) queries
        in
        let server_vias = List.sort_uniq compare (List.map (fun x -> x.via) mine) in
        let act =
          Measure.mean
            (List.map (fun x -> let _, r, w = x.io in float_of_int (r + w)) mine)
        in
        let est = Inproc.estimate replay_spec fresh.db s.sql in
        Option.iter (fun est -> qerrors := Inproc.qerror ~est ~act :: !qerrors) est;
        Report.line "%-18s %-18s %-18s %10s %12.1f" s.label
          (String.concat "," server_vias)
          (String.concat "," (List.sort_uniq compare vias.(i)))
          (match est with Some e -> Printf.sprintf "%.1f" e | None -> "-")
          act)
      stmts;
    let nq = float_of_int (List.length queries) in
    let via_frac name =
      Measure.ratio
        (float_of_int (List.length (List.filter (fun s -> s.via = name) queries)))
        nq
    in
    let busy = Measure.ratio (after.query_ms -. before.query_ms)
        (float_of_int (after.query_count - before.query_count)) in
    let busy = busy *. speed in
    let rtt =
      Measure.mean (List.map (fun s -> (s.t1 -. s.t0) *. 1e3 *. s.factor) queries)
    in
    let replay_speed =
      Measure.nominal_calibration_s /. Measure.median cal.Measure.cals
    in
    let hits = after.hits - before.hits and misses = after.misses - before.misses in
    let fr = float_of_int lt.ops in
    let metrics =
      Inproc.layer_span_metrics ~speed:replay_speed ~ops:lt.ops
      @ [
          Report.metric "exec.rows_per_result_row" "rows/row"
            (Measure.ratio (float_of_int lt.rows_closed) (float_of_int lt.result_rows));
          Report.metric "exec.hash_build_ms" "ms"
            (Measure.ratio (lt.hash_build_s *. 1e3 *. replay_speed) fr);
          Report.metric "storage.logical_reads_per_op" "pages/op"
            (Measure.ratio logical nq);
          Report.metric "storage.physical_reads_per_op" "pages/op"
            (Measure.ratio preads nq);
          Report.metric "storage.physical_writes_per_op" "pages/op"
            (Measure.ratio pwrites nq);
          Report.metric "storage.hit_rate" "frac"
            (if logical = 0. then 0. else 1. -. (preads /. logical));
          Report.metric "storage.sort_build_ms" "ms"
            (Measure.ratio (lt.sort_build_s *. 1e3 *. replay_speed) fr);
          Report.metric "optimizer.via_transformed_frac" "frac" (via_frac "transformed");
          Report.metric "optimizer.via_nested_frac" "frac" (via_frac "nested_iteration");
          Report.metric "optimizer.via_batched_frac" "frac" (via_frac "batched");
          Report.metric "optimizer.io_qerror_p50" "ratio" (Measure.median !qerrors);
          Report.metric "optimizer.io_qerror_max" "ratio"
            (List.fold_left Float.max 0. !qerrors);
          Report.metric "server.busy_ms_per_req" "ms" busy;
          Report.metric "server.wait_ms_per_req" "ms" (rtt -. busy);
          Report.metric "server.plan_cache_hit_frac" "frac"
            (Measure.ratio (float_of_int hits) (float_of_int (hits + misses)));
          Report.metric "server.invalidations" "count"
            (float_of_int (after.invalidations - before.invalidations));
          Report.metric "server.load_ms" "ms"
            (Measure.ratio ((after.load_ms -. before.load_ms) *. speed)
               (float_of_int (after.load_count - before.load_count)));
          Report.metric "trace_overhead_frac" "frac"
            (Measure.ratio (lt.traced_s -. lt.untraced_s) lt.untraced_s);
        ]
    in
    { Report.correct = correct && lt.mismatches = 0; attempted = ops; failed; metrics }
  end
