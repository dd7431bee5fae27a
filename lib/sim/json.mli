(** The repository's one JSON module: the string escaper every exporter
    writes with ({!Trace}, {!Span}, {!Metrics}) and a minimal strict
    reader (objects, arrays, strings, numbers, booleans, null), so tests
    and tools parse the repository's JSON output — trace files, metrics
    documents, span exports, flight recordings — without an external
    dependency. *)

val escape : string -> string
(** The body of a JSON string literal for its argument, without the
    surrounding quotes: quote, backslash, newline, carriage return and
    tab get their two-character escapes, other control bytes a [\u]
    escape; every other byte is copied as is. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** Parses exactly one value (trailing whitespace allowed); raises
    [Failure] with a position on malformed input. *)

val member : string -> t -> t option
