(** Kernel execution-trace events — the vocabulary produced by the
    instrumentation (paper, section 5.1): function entry/exit, syscall
    boundaries and memory accesses, in chronological order. *)

type rw = Read | Write

val rw_to_string : rw -> string

type mem = {
  addr : int;    (** synthetic kernel address of the variable *)
  width : int;   (** access width in bytes *)
  rw : rw;
  ip : int;      (** synthetic instruction address of the access site *)
}

type t =
  | Fn_enter of int            (** kernel function id *)
  | Fn_exit of int
  | Sys_enter of int           (** index of the syscall within the program *)
  | Sys_exit of int
  | Mem of mem

val ip_of : fn:int -> caller:int -> addr:int -> rw:rw -> int
(** Synthetic instruction address: a deterministic mix of the innermost
    function, its immediate caller (modelling helper inlining), the
    variable address and the access direction — the granularity the
    DF-IA clustering strategy keys on. *)
