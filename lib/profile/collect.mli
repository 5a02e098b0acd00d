(** Per-program kernel-footprint profiling (paper, section 4.1.1).

    Every program is profiled in the same execution environment: a
    kernel booted once with two container processes and snapshotted; the
    snapshot is reloaded before each program runs, so profiles are
    comparable. *)

type role = Sender | Receiver

type profile = {
  accesses : Stackrec.access list;     (** deduplicated, attributed *)
  results : Kit_kernel.Interp.result list;  (** the run's syscall trace *)
}

type t

val create : Kit_kernel.Config.t -> t
(** Boot the profiling environment: kernel, two containers, snapshot. *)

val profile : t -> role:role -> Kit_abi.Program.t -> profile
(** Profile one program in [role]'s container, from a fresh snapshot. *)

val vars : t -> Kit_kernel.Heap.varinfo list
(** The profiled kernel's shared-variable registry, in boot order —
    deterministic for a given config; the coverage ledger's raw
    universe. *)
