(* A small size-capped LRU map for the runner's memo caches.

   Recency is tracked with stamps instead of a doubly-linked list: each
   live entry records the stamp of its latest touch, and a queue holds
   (entry, stamp) pairs in touch order. Eviction pops the queue until it
   finds a pair whose stamp is still current — stale pairs (the entry
   was touched again later, or removed, which sets its stamp to -1) are
   skipped for free. The queue holds entries rather than lookup keys, so
   a touch retains nothing the table does not already hold and eviction
   never re-hashes a key. The queue is compacted once it grows past a
   small multiple of the cap, so memory stays O(cap) and every operation
   is amortised O(1).

   Keys carry their hash: the runner computes a program's hash once per
   case and hands the same key to every cache, so a lookup never hashes
   a program, and [K.equal] guards every hit. *)

module type KEY = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

module type S = sig
  type key
  type 'v t

  val create : ?on_evict:(key -> 'v -> unit) -> int -> 'v t
  val find : 'v t -> key -> 'v option
  val add : 'v t -> key -> 'v -> unit
  val length : 'v t -> int
end

module Make (K : KEY) = struct
  module Tbl = Hashtbl.Make (K)

  type key = K.t

  type 'v entry = { key : K.t; value : 'v; mutable stamp : int }

  type 'v t = {
    cap : int;
    on_evict : K.t -> 'v -> unit;
    tbl : 'v entry Tbl.t;
    order : ('v entry * int) Queue.t;  (* touch order; stale stamps skipped *)
    mutable clock : int;
  }

  let create ?(on_evict = fun _ _ -> ()) cap =
    let cap = max 1 cap in
    { cap; on_evict; tbl = Tbl.create (min cap 16); order = Queue.create ();
      clock = 0 }

  let length t = Tbl.length t.tbl

  let is_current (e, stamp) = e.stamp = stamp

  let compact t =
    if Queue.length t.order > (8 * t.cap) + 8 then begin
      let live = Queue.create () in
      Queue.iter (fun p -> if is_current p then Queue.push p live) t.order;
      Queue.clear t.order;
      Queue.transfer live t.order
    end

  let touch t e =
    t.clock <- t.clock + 1;
    e.stamp <- t.clock;
    Queue.push (e, t.clock) t.order;
    compact t

  let find t k =
    match Tbl.find_opt t.tbl k with
    | None -> None
    | Some e ->
      touch t e;
      Some e.value

  let remove t e =
    Tbl.remove t.tbl e.key;
    e.stamp <- -1

  (* Evict the least-recently-touched live entry. *)
  let evict_one t =
    let rec pop () =
      let ((e, _) as p) = Queue.pop t.order in
      if is_current p then begin
        remove t e;
        t.on_evict e.key e.value
      end
      else pop ()
    in
    if Tbl.length t.tbl > 0 then pop ()

  let add t k v =
    (match Tbl.find_opt t.tbl k with
     | Some e -> remove t e
     | None -> if Tbl.length t.tbl >= t.cap then evict_one t);
    let e = { key = k; value = v; stamp = 0 } in
    Tbl.replace t.tbl k e;
    touch t e
end
