(** A small size-capped LRU map for the runner's memo caches: lookups
    refresh recency, inserts evict the least-recently-used entry when
    the cap is reached. Amortised O(1) per operation, O(cap) memory. *)

(** A key whose [hash] is cheap — the runner's keys carry a hash
    computed once per case, which [hash] only reads — and whose [equal]
    decides every hit. *)
module type KEY = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

module type S = sig
  type key
  type 'v t

  val create : ?on_evict:(key -> 'v -> unit) -> int -> 'v t
  (** [create cap] (clamped to at least 1). [on_evict] is called with
      each entry dropped by capacity eviction — not by overwriting
      {!add}. *)

  val find : 'v t -> key -> 'v option
  (** Lookup; a hit refreshes the entry's recency. *)

  val add : 'v t -> key -> 'v -> unit
  (** Insert or overwrite; evicts the LRU entry first when full. *)

  val length : 'v t -> int
end

module Make (K : KEY) : S with type key = K.t
