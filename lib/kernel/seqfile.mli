(** The seq_file machinery backing procfs reads.

    All renderers emit lines through shared helpers that touch a common
    kernel buffer variable — a realistic source of benign
    cross-container data flows whose access sites coincide but whose
    call-stack contexts differ per renderer and per syscall: the
    structure that makes the DF-ST clustering strategies finer than
    DF-IA (paper, section 4.1.2). *)

type t

val init : Heap.t -> Config.t -> t

val render : Ctx.t -> t -> netns:int -> string list -> string
(** Append every line to the seq buffer, then drain it into the
    reader's address space. [netns] is the rendering namespace; under
    race bug #3 a render racing a foreign render appends a truncation
    notice. *)
