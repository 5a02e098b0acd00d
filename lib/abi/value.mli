(** System call argument values.

    [Ref i] denotes the return value of the [i]-th call of the same test
    program (a file descriptor or other kernel resource id), mirroring
    Syzkaller's resource arguments; the interpreter resolves it at
    execution time. *)

type t =
  | Int of int
  | Str of string
  | Ref of int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Rendered as it appears in the syzlang-style program text: integers
    bare, strings quoted, references as [rN]. *)
