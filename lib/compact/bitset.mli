(** Growable packed bitsets over small dense int universes (kernel
    addresses, (sender, receiver) pair indices). Words are native ints,
    so intersection, union and counting are O(words) with no per-member
    allocation. Members must be non-negative; sets grow on {!add}, and
    reads treat bits beyond the current capacity as absent. *)

type t

val create : int -> t
(** [create capacity] — an empty set sized for members [0..capacity-1];
    {!add} grows it beyond that if needed. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val cardinal : t -> int
val is_empty : t -> bool
val inter_count : t -> t -> int
val inter : t -> t -> t
val union : t -> t -> t

val iter : (int -> unit) -> t -> unit
(** Ascending member order. *)

val elements : t -> int list
(** Ascending. *)
