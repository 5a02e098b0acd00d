(** The kernel's entropy source — deterministic for a given boot seed
    and salt. Globally-allocated object ids drawn from it (socket and
    token ids) are unpredictable to test programs, the property behind
    the known-bug G limitation (paper, section 6.2). *)

type t

val init : Heap.t -> t
val reseed : t -> seed:int -> salt:int -> unit
val next : t -> int
