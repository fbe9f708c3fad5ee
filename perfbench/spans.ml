(* Spans recorded around the calls the harness makes into each layer:
   name, start, end, parent span and operation id.  They are kept in
   memory and written out as JSON lines when the run ends. *)

type span = {
  id : int;
  parent : int; (* -1 for a root span *)
  op : int;
  name : string;
  start : float;
  stop : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let origin = Unix.gettimeofday ()

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let add ~id ~parent ~op ~name ~start ~stop =
  recorded := { id; parent; op; name; start; stop } :: !recorded

(* Run [f] inside a span; returns its result and duration in seconds. *)
let within ~parent ~op name f =
  let id = fresh () in
  let start = Unix.gettimeofday () in
  let finish () = add ~id ~parent ~op ~name ~start ~stop:(Unix.gettimeofday ()) in
  match f id with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.parent s.op s.name
        ((s.start -. origin) *. 1e6)
        ((s.stop -. origin) *. 1e6))
    (List.rev !recorded);
  close_out oc

(* Summed duration of every span called [name], in seconds. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. !recorded
