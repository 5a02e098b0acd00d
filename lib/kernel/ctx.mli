(** The tracing context threaded through every kernel operation: the
    live simulated call stack, the optional profiling sink, and the
    interrupt-context flag (accesses made in irq context are not
    reported, mirroring the paper's in_task() filter, section 5.1). *)

type t = {
  mutable sink : (Kevent.t -> unit) option;
  mutable stack : int list;            (** function ids, innermost first *)
  mutable in_irq : bool;
  mutable yield : (unit -> unit) option;
      (** preemption hook fired before every instrumented shared-memory
          access (see {!Var}); [None] outside interleaved execution *)
}

val create : unit -> t

val emit : t -> Kevent.t -> unit
(** Deliver an event to the sink, unless tracing is off or the context
    is in interrupt context. *)

val tracing : t -> bool
(** Whether {!emit} would deliver an event now: a sink is installed and
    the context is not in interrupt context. Hot paths test it to skip
    building events nobody receives. *)

val with_sink : t -> (Kevent.t -> unit) -> (unit -> 'a) -> 'a
(** Run a computation with a profiling sink installed; the previous sink
    is restored afterwards, exceptions included. *)

val with_irq : t -> (unit -> 'a) -> 'a
(** Run a computation in interrupt context. *)

val yield : t -> unit
(** Fire the preemption hook, unless none is installed or the context is
    in interrupt context. Yield points coincide exactly with the
    accesses the profiling sink reports: an access invisible to
    profiling (uninstrumented or in irq) is also not a scheduling
    point, so schedule search over solo profiles matches reality. *)

val innermost : t -> int
(** The currently executing kernel function (0 at top level). *)

val caller : t -> int
(** The immediate caller of {!innermost} (0 when shallower). *)
