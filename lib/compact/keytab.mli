(** Dense ids for int-array keys, numbered [0, 1, ...] in first-seen
    order.

    The caller supplies each key's hash (for instance an {!Fnv} state
    folded in while the key was written). The hash only selects a
    bucket: identity is exact element-wise equality, so colliding
    hashes never merge distinct keys. *)

type t

val create : int -> t
(** [create n]: an empty table sized for about [n] keys. *)

val length : t -> int
(** Distinct keys added so far. *)

val id : t -> hash:int -> int array -> int
(** The id of [key], adding a copy of it under a fresh id when it is
    new — the caller may reuse its buffer afterwards. *)

val find : t -> hash:int -> int array -> int option
(** The id of [key], if it was added. *)
