(** A small size-capped LRU map for the runner's memo caches: lookups
    refresh recency, inserts evict the least-recently-used entry when
    the cap is reached. Amortised O(1) per operation, O(cap) memory. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> int -> ('k, 'v) t
(** [create cap] (clamped to at least 1). [on_evict] is called with each
    entry dropped by capacity eviction — not by overwriting {!add}. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite; evicts the LRU entry first when full. *)

val length : ('k, 'v) t -> int
