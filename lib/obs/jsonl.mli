(** A minimal JSON value type with a deterministic printer and a parser
    for the telemetry JSONL subset (no external dependency). Rendering
    preserves field order and prints floats via [%.12g], so equal values
    render byte-identically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val parse : string -> (t, string) result
(** Total: malformed input, and input nested deeper than 512 levels,
    come back as [Error]. *)

(** {2 Accessors} — shallow, [None] on kind mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** Also accepts [Int] (JSON numbers without a fraction). *)

val to_str : t -> string option
val to_list : t -> t list option
