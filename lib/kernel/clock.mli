(** Virtual kernel time.

    The clock advances by a fixed quantum per syscall from a
    per-execution base offset set by the execution environment;
    re-running a receiver with different bases is how KIT exposes
    timing-dependent syscall results (paper, section 4.3.2). [jiffies]
    is instrumented but only touched from interrupt context, so its
    accesses never reach profiles — like the paper's in_task() filter. *)

type t

val tick_quantum : int

val init : Heap.t -> t

val now : t -> int
(** Current kernel time (base + elapsed ticks). *)

val tick : Ctx.t -> t -> unit
(** Advance by one syscall quantum and run the timer interrupt. *)

val set_base : t -> int -> unit
(** Host-side control: select this execution's boot offset. *)

val base : t -> int
