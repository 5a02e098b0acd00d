(** Per-domain hash-consed strings.

    [intern] returns one canonical copy per distinct string contents
    (within the calling domain), so [String.equal] on two interned
    strings is normally decided by the runtime's pointer fast path.
    Strings interned in different domains still compare correctly —
    only the O(1) shortcut is per-domain. The pool is capped; past the
    cap, strings pass through uninterned. *)

val intern : string -> string

val intern_hashed : string -> string * int
(** The canonical copy and its {!Fnv.hash_string} content hash,
    computed once per distinct string per domain. *)

val string_of_small_int : int -> string
(** [string_of_int] through a preallocated table for small values. *)
