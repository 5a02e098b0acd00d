(** System call results: return value, errno, and a decoded out-payload
    (the data strace would render). The trace layer turns these into
    abstract syntax trees. *)

type stat = {
  inode : int;
  dev_minor : int;
  size : int;
  mtime : int;
}

type payload =
  | P_none
  | P_str of string
  | P_lines of string list
  | P_stat of stat

type t = {
  ret : int;
  err : Errno.t option;
  out : payload;
}

val ok : ?out:payload -> int -> t
val error : Errno.t -> t

val equal : t -> t -> bool
(** Exact structural equality: return value, errno and payload. *)

val pp : Format.formatter -> t -> unit
