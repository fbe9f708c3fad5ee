(* The fuzzing loop: generate seeded cases, run each through the full
   execution matrix, and reduce every discrepancy to a minimal repro.

   Determinism: one [Random.State] seeded from [seed] drives everything,
   so a failing (seed, count) pair is a complete bug report; the repro
   files exist so the bug survives the generator changing underneath it. *)

type discrepancy = {
  index : int;  (* which generated case, 0-based *)
  case : Repro.case;  (* the shrunk case *)
  details : string list;  (* one line per disagreeing matrix cell *)
}

type report = {
  cases : int;
  executed : int;  (* candidate executions that produced a result *)
  refusals : int;  (* transformation declined — expected, counted *)
  refusals_by_cell : (string * int) list;  (* matrix order, non-zero only *)
  discrepancies : discrepancy list;
}

(* A case "still fails" iff some matrix cell disagrees — any cell, not the
   originally failing one: the shrinker must not chase a moving target
   into a different bug silently, but pinning the exact candidate makes
   minimization brittle when a smaller input shifts which executor
   diverges first.  The repro records every disagreeing cell. *)
let fails case =
  match Matrix.run_case case with
  | r -> (
      match r.Matrix.reference with
      | Error _ -> true (* reference failure is itself a bug *)
      | Ok _ -> Matrix.discrepancies r <> [])
  | exception _ -> true

let shrunk case = Shrink.minimize ~still_fails:fails case

(* Static cross-check of a generated case: the bounded counterexample
   search over the case's own query (Analysis.Equiv_check at k=2, via
   [Core.check_query]).  An Error diagnostic — a counterexample to a
   guard-accepted rewrite — is a bug in its own right even when every
   matrix cell agreed, so it comes back as a discrepancy line. *)
let static_check_details (case : Repro.case) : string list =
  let db = Repro.build_db case in
  match Core.parse db case.Repro.sql with
  | Error _ -> []
  | Ok q ->
      let report = Core.check_query db q in
      List.filter_map
        (fun (d : Analysis.Diagnostics.t) ->
          if d.Analysis.Diagnostics.severity = Analysis.Diagnostics.Error then
            Some
              ("static check: " ^ d.Analysis.Diagnostics.code ^ " "
             ^ d.Analysis.Diagnostics.message)
          else None)
        report.Core.ck_diags

let run ?(log = ignore) ?(check = false) ~seed ~count () : report =
  let rng = Random.State.make [| seed |] in
  let executed = ref 0 and discrepancies = ref [] in
  let refused = Hashtbl.create 64 (* candidate -> refusal count *) in
  for index = 0 to count - 1 do
    let case = Gen.case rng in
    let result = Matrix.run_case case in
    List.iter
      (fun { Matrix.candidate; verdict } ->
        match verdict with
        | Matrix.Refused _ ->
            Hashtbl.replace refused candidate
              (1 + Option.value (Hashtbl.find_opt refused candidate) ~default:0)
        | Matrix.Agree | Matrix.Mismatch _ | Matrix.Failed _ -> incr executed)
      result.Matrix.outcomes;
    let bad =
      match result.Matrix.reference with
      | Error msg -> [ "reference failed: " ^ msg ]
      | Ok _ -> Matrix.describe result
    in
    let static_bad = if check then static_check_details case else [] in
    if bad <> [] then begin
      log
        (Printf.sprintf "case %d: %d disagreeing cell(s); shrinking — %s"
           index (List.length bad) case.Repro.sql);
      let case = shrunk case in
      let details =
        let r = Matrix.run_case case in
        match r.Matrix.reference with
        | Error msg -> [ "reference failed: " ^ msg ]
        | Ok _ -> Matrix.describe r
      in
      (* the shrunk case can only fail in the ways [fails] accepts, but if
         description comes back empty keep the original lines *)
      let details = if details = [] then bad else details in
      discrepancies := { index; case; details } :: !discrepancies
    end
    else if static_bad <> [] then
      (* the dynamic matrix agreed but the static checker objects — the
         shrinker's predicate (matrix disagreement) cannot chase this, so
         record the case unshrunk *)
      discrepancies :=
        { index; case; details = static_bad } :: !discrepancies
    else if index mod 50 = 49 then
      log (Printf.sprintf "%d/%d cases clean" (index + 1) count)
  done;
  let refusals_by_cell =
    List.filter_map
      (fun c ->
        Option.map
          (fun n -> (Matrix.candidate_label c, n))
          (Hashtbl.find_opt refused c))
      Matrix.all_candidates
  in
  {
    cases = count;
    executed = !executed;
    refusals = List.fold_left (fun acc (_, n) -> acc + n) 0 refusals_by_cell;
    refusals_by_cell;
    discrepancies = List.rev !discrepancies;
  }

(* ---------------- replay ------------------------------------------------ *)

(* Replay one repro file through the full matrix: [Ok ()] iff every cell
   agrees or refuses. *)
let replay path : (unit, string) result =
  match Repro.load path with
  | exception Repro.Bad_repro msg -> Error (path ^ ": " ^ msg)
  | case -> (
      let result = Matrix.run_case case in
      match result.Matrix.reference with
      | Error msg -> Error (path ^ ": reference failed: " ^ msg)
      | Ok _ -> (
          match Matrix.describe result with
          | [] -> Ok ()
          | lines -> Error (path ^ ":\n  " ^ String.concat "\n  " lines)))

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "%d cases, %d candidate executions, %d refusals, %d discrepancies"
    r.cases r.executed r.refusals
    (List.length r.discrepancies);
  List.iter
    (fun (label, n) -> Fmt.pf ppf "@\n  %5d refusals  %s" n label)
    r.refusals_by_cell
