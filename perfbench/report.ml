(* What a workload run hands back to the entry point, and the report
   lines printed on the way. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric name unit_ value = { name; value; unit_ }

let line fmt = Printf.printf (fmt ^^ "\n%!")

(* Failure counts per statement class: errors, answers that differ from
   the reference only in row multiplicity, and wrong answers. *)
type class_count = {
  mutable ops : int;
  mutable errors : int;
  mutable multiplicity : int;
  mutable wrong : int;
  mutable latencies_ms : float list;
}

let classes : (string, class_count) Hashtbl.t = Hashtbl.create 16

let count_class label =
  match Hashtbl.find_opt classes label with
  | Some c -> c
  | None ->
      let c =
        { ops = 0; errors = 0; multiplicity = 0; wrong = 0; latencies_ms = [] }
      in
      Hashtbl.add classes label c;
      c

let print_classes () =
  line
    "failures by statement class (errors / multiplicity-only / wrong, of \
     ops), and the class's median latency:";
  List.iter
    (fun (label, c) ->
      line "  %-22s %6d / %6d / %6d  of %7d  p50 %9.4f ms" label c.errors
        c.multiplicity c.wrong c.ops
        (Measure.median c.latencies_ms))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) classes []))

let totals () =
  Hashtbl.fold
    (fun _ c (failed, wrong) ->
      (failed + c.errors + c.multiplicity + c.wrong, wrong + c.wrong))
    classes (0, 0)
