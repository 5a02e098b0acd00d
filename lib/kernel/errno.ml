(* Error numbers returned by the model kernel, the subset of Linux errno
   values that the modelled syscalls can produce. *)

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

let to_int = function
  | EPERM -> 1
  | ENOENT -> 2
  | EBADF -> 9
  | EEXIST -> 17
  | EINVAL -> 22
  | ENFILE -> 23
  | ENOSYS -> 38
  | EADDRINUSE -> 98
  | EOPNOTSUPP -> 95
  | EACCES -> 13

let to_string = function
  | EPERM -> "EPERM"
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | EEXIST -> "EEXIST"
  | EINVAL -> "EINVAL"
  | ENFILE -> "ENFILE"
  | ENOSYS -> "ENOSYS"
  | EADDRINUSE -> "EADDRINUSE"
  | EOPNOTSUPP -> "EOPNOTSUPP"
  | EACCES -> "EACCES"

let pp ppf t = Fmt.string ppf (to_string t)
