(** JSON values, the single printer and strict parser behind every machine
    output: trace events, EXPLAIN plan trees, diagnostics reports, server
    requests and responses, and the bench documents. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Strict single-value parse (trailing garbage is an error).  No comments;
    [\uXXXX] escapes are decoded to UTF-8 (surrogate pairs included). *)
val parse : string -> (t, string) result

(** Compact single-line rendering.  Strings are written as UTF-8 with the
    double quote, the backslash and every control character escaped, so
    the output never contains a raw newline.  Integral floats below 1e15
    print as [N.0], other floats as [%.12g]; NaN and infinities print as
    [null]. *)
val to_string : t -> string

(** [member name j] — field of an [Obj], else [None]. *)
val member : string -> t -> t option
