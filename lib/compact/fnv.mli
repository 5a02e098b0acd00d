(** Streaming FNV-1a hashing over native ints — the fast fingerprint
    primitive behind hash-consed trace nodes and testcase fingerprints,
    replacing [Digest.string (Marshal.to_string …)] round trips.

    The state is a plain int; mixing never allocates. Hashes are stable
    within and across processes for the same input sequence (no
    randomisation, no pointer dependence), which is what checkpoint
    fingerprint caches require. *)

type state = int

val init : state
val int : state -> int -> state

val to_int : state -> int
(** The state folded to a non-negative int. *)

val to_hex : state -> string
(** 16 lowercase hex digits of the raw state. *)

val hash_string : string -> int
