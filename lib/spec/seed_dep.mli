(** Seed-call dependency selection (paper, section 5.3): when the user
    highlights a seed system call, KIT automatically selects every call
    with an explicit data dependency on it. *)

val is_dependent :
  Kit_abi.Program.t -> seed:(Kit_abi.Program.call -> bool) -> int -> bool
(** Is call [i] a seed call, or does it transitively consume one of
    their results through a resource reference? *)
