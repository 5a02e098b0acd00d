(** The process table: per-process namespace sets and file-descriptor
    tables. Descriptors point at sockets (by socket id) or at file
    objects (procfs entries, /tmp files). *)

type file = {
  path : string;
  inode : int;
  dev_minor : int;
}

type fd_obj =
  | Fd_sock of int
  | Fd_file of file

type proc = {
  pid : int;
  uid : int;
  ns : Namespace.set;
  fds : fd_obj Maps.Int_map.t;
  next_fd : int;
}

type t

val init : Heap.t -> t

val spawn : Ctx.t -> t -> uid:int -> ns:Namespace.set -> proc

val find_exn : Ctx.t -> t -> int -> proc
(** @raise Invalid_argument on unknown pids — a harness bug, not a
    kernel condition. *)

val fd_install : Ctx.t -> t -> pid:int -> fd_obj -> int
(** Install an fd object in [pid]'s table; returns the fd number. *)

val fd_lookup : Ctx.t -> t -> pid:int -> int -> fd_obj option
val fd_close : Ctx.t -> t -> pid:int -> int -> bool

val unshare : Ctx.t -> t -> pid:int -> flags:int -> Namespace.set option
(** Allocate fresh namespace instances for the kinds selected by
    [flags] and move [pid] into them. *)
