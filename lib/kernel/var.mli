(** Traced kernel shared variables.

    Reads and writes go through the tracing context and emit
    memory-access events carrying the variable's synthetic address and a
    synthetic instruction address. Variables can be allocated
    uninstrumented to model code the compiler pass cannot see:
    jump-label code patching (paper, bug #2) or excluded subsystems
    (scheduler, mm). *)

type 'a t

val alloc :
  Heap.t -> name:string -> ?width:int -> ?instrumented:bool -> 'a -> 'a t
(** Allocate and register a variable. [width] defaults to 8 bytes;
    [instrumented] to [true]. Its address, name, width and
    instrumentation are read back from {!Heap.vars}. *)

val read : Ctx.t -> 'a t -> 'a
(** Traced read. *)

val write : Ctx.t -> 'a t -> 'a -> unit
(** Traced write. *)

val peek : 'a t -> 'a
(** Untraced read, for boot-time initialisation, the test harness and
    the host side of the execution environment. *)

val poke : 'a t -> 'a -> unit
(** Untraced write; same intended users as {!peek}. *)
