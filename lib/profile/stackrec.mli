(** Simulated call-stack reconstruction (paper, section 5.1): replays a
    chronological execution trace, pushing and popping a simulated
    stack, and attributes to every memory access the call stack and
    syscall index in effect when it happened. *)

type access = {
  addr : int;
  width : int;
  rw : Kit_kernel.Kevent.rw;
  ip : int;
  stack : int list;        (** function ids, innermost first *)
  stack_hash : int;
  sys_index : int;         (** index of the syscall within the program *)
}

val replay : Kit_kernel.Kevent.t list -> access list
(** Events must be in chronological order. *)

val dedup : access list -> access list
(** Deduplicate by (addr, rw, ip, stack); the first occurrence's syscall
    index is kept. Bounds profile size without losing any access site
    the clustering strategies distinguish. *)
