(** Kernel function registry and call-site instrumentation.

    Every model kernel function is registered once at module
    initialisation; [call] brackets its execution with entry/exit events
    and maintains the context's simulated call stack — exactly the
    information the paper's compiler pass emits (section 5.1). Functions
    are assumed to return exactly once; the stack is restored even on
    exceptions, matching the paper's noreturn exclusion. *)

val register : string -> int
(** Idempotent: registering the same name twice yields the same id. *)

val name : int -> string

val call : Ctx.t -> int -> (unit -> 'a) -> 'a
