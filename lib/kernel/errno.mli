(** Error numbers returned by the model kernel — the subset of Linux
    errno values the modelled syscalls can produce. *)

type t =
  | EPERM
  | ENOENT
  | EBADF
  | EEXIST
  | EINVAL
  | ENFILE
  | ENOSYS
  | EADDRINUSE
  | EOPNOTSUPP
  | EACCES

val to_int : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
