(* Numeric and bookkeeping helpers shared by the workload drivers: timing
   and machine-speed scaling, quantiles, answer digests, peak-RSS readout
   and the on-disk reference cache. *)

module Relation = Relalg.Relation
module P = Server.Protocol

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

(* Linear interpolation between closest ranks (the "type 7" quantile). *)
let quantile xs p =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let h = p *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor h) in
      let hi = min (lo + 1) (n - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let ratio num den = if den = 0. then 0. else num /. den

(* ---------------- machine speed ------------------------------------ *)

(* A fixed piece of CPU work in the style of the executors — allocation,
   comparison sorting, hashing — timed to follow the machine's speed. *)
let calibration_kernel () =
  let a = Array.init 4096 (fun i -> ((i * 7919) land 4095, string_of_int i)) in
  Array.sort compare a;
  let h = Hashtbl.create 4096 in
  Array.iter (fun (k, v) -> Hashtbl.replace h v k) a;
  ignore (Sys.opaque_identity h)

(* The fastest of three runs of the kernel, in seconds. *)
let calibrate () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let (), dt = timed calibration_kernel in
    best := Float.min !best dt
  done;
  !best

(* Timings are scaled to a nominal machine speed: the speed at which the
   kernel takes [nominal_calibration_s].  A shared cloud host can
   alternate, for seconds at a time, between CPU speeds about 1.5x apart;
   an operation's time divided by the kernel's time, measured just before
   it, stays put across both. *)
let nominal_calibration_s = 2e-3

type scaler = {
  mutable cal : float; (* latest kernel time *)
  mutable since : float; (* measured time since it was taken *)
  mutable cals : float list;
}

let scaler () =
  let cal = calibrate () in
  { cal; since = 0.; cals = [ cal ] }

(* Nominal over current speed: multiply a time measured now by it. *)
let factor s = nominal_calibration_s /. s.cal

(* Account [dt] of measured time; the kernel is re-timed after every
   50 ms of it. *)
let advance s dt =
  s.since <- s.since +. dt;
  if s.since >= 0.05 then begin
    s.cal <- calibrate ();
    s.cals <- s.cal :: s.cals;
    s.since <- 0.
  end

(* [dt], measured just now, at nominal speed. *)
let scale s dt =
  let scaled = dt *. factor s in
  advance s dt;
  scaled

(* ---------------- answers ------------------------------------------- *)

(* An answer as a bag: its cardinality, the digest of its sorted rows (bag
   identity) and the digest of its distinct rows (set identity).  Cells
   are rendered through the server's JSON coercion, so an in-process
   relation and a wire response digest identically. *)
type answer = { card : int; bag : string; set : string }

let cell v = P.to_string (P.json_of_value v)

let answer_of_cells (rows : string list list) =
  let lines = List.sort compare (List.map (String.concat "\x1f") rows) in
  let digest ls = Digest.to_hex (Digest.string (String.concat "\x1e" ls)) in
  {
    card = List.length lines;
    bag = digest lines;
    set = digest (List.sort_uniq compare lines);
  }

let answer_of_relation rel =
  answer_of_cells
    (List.map
       (fun row -> List.map cell (Relalg.Row.to_list row))
       (Relation.rows rel))

(* How an answer compares with the reference: [Same] bag; [Multiplicity]
   when only row multiplicities differ (the duplicates residue of the
   join-based rewrites, DESIGN.md §7); [Wrong] otherwise. *)
type verdict = Same | Multiplicity | Wrong

let verdict ~reference a =
  if a.bag = reference.bag then Same
  else if a.set = reference.set then Multiplicity
  else Wrong

(* ---------------- reference cache ----------------------------------- *)

(* Reference answers are pure functions of the generated tables and the
   statement text, and nested iteration over the out-of-core tables takes
   seconds per statement, so they are cached on disk under the work
   directory, keyed by a digest of both.  A reference that raised is
   stored as its error message. *)
type reference = (answer, string) result

let ref_path ~dir key = Filename.concat dir (key ^ ".ref")

let load_reference ~dir key : reference option =
  match open_in (ref_path ~dir key) with
  | exception Sys_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      Option.bind line (fun line ->
          match String.split_on_char ' ' line with
          | [ "ok"; card; bag; set ] ->
              Some (Ok { card = int_of_string card; bag; set })
          | "error" :: rest -> Some (Error (String.concat " " rest))
          | _ -> None)

let store_reference ~dir key (r : reference) =
  let tmp = ref_path ~dir key ^ ".tmp" in
  let oc = open_out tmp in
  (match r with
  | Ok a -> Printf.fprintf oc "ok %d %s %s\n" a.card a.bag a.set
  | Error msg ->
      Printf.fprintf oc "error %s\n"
        (String.map (function '\n' -> ' ' | c -> c) msg));
  close_out oc;
  Sys.rename tmp (ref_path ~dir key)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ---------------- process memory ------------------------------------ *)

(* Reset a process's peak RSS to its current RSS (Linux clear_refs "5"),
   so a later reading covers only what follows. *)
let reset_peak_rss pid =
  let path =
    match pid with
    | None -> "/proc/self/clear_refs"
    | Some p -> Printf.sprintf "/proc/%d/clear_refs" p
  in
  try
    let oc = open_out path in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mib pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v
