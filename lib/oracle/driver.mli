(** The fuzzing loop: generate [count] seeded cases, run each through the
    full matrix, shrink every discrepancy to a minimal repro. *)

type discrepancy = {
  index : int;  (** which generated case, 0-based *)
  case : Repro.case;  (** the shrunk case *)
  details : string list;  (** one line per disagreeing matrix cell *)
}

type report = {
  cases : int;
  executed : int;  (** candidate executions that produced a result *)
  refusals : int;  (** transformation declined — expected, counted *)
  refusals_by_cell : (string * int) list;
      (** [refusals] split by matrix cell label, in matrix order; cells that
          never refused are left out *)
  discrepancies : discrepancy list;
}

(** Does any matrix cell disagree on [case]?  (The shrinker's predicate.) *)
val fails : Repro.case -> bool

(** [check] runs the static checker ([Core.check_query]: the bounded
    counterexample search at k=2) over every generated case; an
    Error-severity diagnostic counts as a discrepancy even when all matrix
    cells agree. *)
val run :
  ?log:(string -> unit) ->
  ?check:bool ->
  seed:int ->
  count:int ->
  unit ->
  report

(** Replay one repro file through the full matrix: [Ok ()] iff every cell
    agrees or refuses. *)
val replay : string -> (unit, string) result

(** The summary line, then one line per cell of [refusals_by_cell]. *)
val pp_report : report Fmt.t
