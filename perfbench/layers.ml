(* One statement through the public function of each layer, in the order
   [Core.run_prepared] calls them under the Auto strategy: parse → analyze
   → classify → prepare → indexed-nested decision → NEST-G transformation
   → verify → run_program (or Sysr_iteration / Batched_nest on the
   fallback rungs) → presentation order → drop temps.  Every call runs in
   a span; the executor's per-operator trace lines are kept for the
   operator-level counts. *)

module Planner = Optimizer.Planner

type outcome = {
  via : Core.via;
  result : Relalg.Relation.t;
  rows_closed : int; (* summed [close.rows] over every traced operator *)
  hash_build_s : float; (* summed [build_ms] of the hash operators *)
  sort_build_s : float; (* summed [build_ms] of the Sort operators *)
}

(* Fold the operator trace lines (schema in docs/EXPLAIN.md) into the
   counts the per-layer metrics need. *)
let operator_counts lines =
  List.fold_left
    (fun (rows, hash, sort) line ->
      match
        Scanf.sscanf line "{\"ev\":\"open\",\"id\":%d,\"op\":%S,\"build_ms\":%f}"
          (fun _ op ms -> (op, ms))
      with
      | op, ms ->
          let s = ms /. 1e3 in
          if String.starts_with ~prefix:"hash " op
             || String.starts_with ~prefix:"Hash" op
          then
            (rows, hash +. s, sort)
          else if String.starts_with ~prefix:"Sort by" op then
            (rows, hash, sort +. s)
          else (rows, hash, sort)
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> (
          match
            Scanf.sscanf line "{\"ev\":\"close\",\"id\":%d,\"rows\":%d"
              (fun _ r -> r)
          with
          | r -> (rows + r, hash, sort)
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
              (rows, hash, sort)))
    (0, 0., 0.) lines

(* Exceptions the executors raise (e.g. a scalar subquery returning two
   rows) propagate, as they do out of [Core.run]. *)
let replay ?mode ?engine ~op db sql : (outcome, string) result =
  let cat = Core.catalog db in
  Spans.within ~parent:(-1) ~op "op" @@ fun root ->
  let span name f = Spans.within ~parent:root ~op name (fun _ -> f ()) in
  let lines = ref [] in
  let session =
    Exec.Explain.session
      ~trace:(fun l -> lines := l :: !lines)
      (Storage.Catalog.pager cat)
  in
  match span "sql.parse" (fun () -> Sql.Parser.parse sql) with
  | Error e -> Error e
  | Ok ast -> (
      match
        span "sql.analyze" (fun () ->
            Sql.Analyzer.analyze ~lookup:(Storage.Catalog.lookup cat) ast)
      with
      | Error e -> Error e
      | Ok q -> (
          ignore
            (span "optimizer.classify" (fun () ->
                 Optimizer.Classify.classify_query q));
          let nested () =
            (Core.Via_nested,
             span "exec.nested" (fun () -> Exec.Sysr_iteration.run cat q))
          in
          let p = span "optimizer.transform" (fun () -> Core.prepare_query db q) in
          let result =
            match
              span "optimizer.decide" (fun () -> Core.indexed_nested_choice db q)
            with
            | Some _ -> nested ()
            | None -> (
                let transformed =
                  match
                    span "optimizer.transform" (fun () -> Lazy.force p.Core.program)
                  with
                  | Error _ -> None
                  | Ok program -> (
                      let diags =
                        span "analysis.verify" (fun () ->
                            Planner.verify_program cat program)
                      in
                      if Analysis.Diagnostics.has_errors diags then None
                      else
                        match
                          span "exec.plan_exec" (fun () ->
                              Planner.run_program ~force:Planner.Auto ?mode
                                ~verify:false ?engine ~session cat program)
                        with
                        | rel ->
                            let rel =
                              span "exec.order" (fun () ->
                                  Exec.Presentation.apply_order q rel)
                            in
                            span "exec.drop_temps" (fun () ->
                                Planner.drop_temps cat program);
                            Some rel
                        | exception Planner.Planning_error _ -> None)
                in
                match transformed with
                | Some rel -> (Core.Via_transformed, rel)
                | None ->
                    if
                      span "optimizer.decide" (fun () ->
                          Optimizer.Estimate.prefer_batched cat q)
                    then
                      match
                        span "exec.batched" (fun () ->
                            Optimizer.Batched_nest.run ~force:Planner.Auto ?mode
                              ?engine ~session cat q)
                      with
                      | r -> (Core.Via_batched, r.Optimizer.Batched_nest.relation)
                      | exception
                          ( Optimizer.Batched_nest.Unsupported _
                          | Planner.Planning_error _ ) ->
                          nested ()
                    else nested ())
          in
          let via, rel = result in
          let rows_closed, hash_build_s, sort_build_s =
            operator_counts !lines
          in
          Ok
            {
              via;
              result = rel;
              rows_closed;
              hash_build_s;
              sort_build_s;
            }))
