(** The multi-dimensional kernel memory access map (paper, section 5.1):
    keyed by address, preserving per entry the write/read flag,
    instruction address and call-stack hash, mapping to the test
    programs that performed the access. Pairing writers with readers of
    the same address yields candidate inter-container data flows.

    Entries live in a flat int arena; per-address writer/reader chains
    are intrusive (newest first) and the address universes are packed
    bitsets. Hot callers walk chains by integer handle through the
    [e_*] accessors; {!iter_overlaps} materialises {!entry} records for
    convenience.

    Campaigns never build one: they fold each program into online
    cluster tables ([Kit_gen.Cluster.feed]), which keep {!entry} records
    for group bests. The map is the batch reference model that tests and
    the benchmark's replay compare those tables against. *)

(** A materialised entry view. *)
type entry = {
  prog : int;                    (** corpus index *)
  sys_index : int;               (** syscall index inside the program *)
  ip : int;
  stack : int list;
  stack_hash : int;
}

type t

val create : unit -> t

val add : t -> prog:int -> Stackrec.access list -> unit
(** Fold a program's accesses into the map. *)

(** {2 Handle-based traversal (allocation-free)} *)

val iter_overlap_chains :
  t ->
  (addr:int -> whead:int -> wcount:int -> rhead:int -> rcount:int -> unit) ->
  unit
(** Visit every address accessed by both a writer and a reader, in
    ascending address order, handing over the newest-first chain heads
    and per-side entry counts. *)

val iter_chain : t -> int -> (int -> unit) -> unit
(** [iter_chain t head f] applies [f] to each entry handle on a chain,
    newest first. A negative head is the empty chain. *)

val e_prog : t -> int -> int
val e_sys_index : t -> int -> int
val e_ip : t -> int -> int

val e_context : t -> int -> k:int -> int list
(** The [k] call-stack frames starting two above the instrumentation
    site — the DF-ST clustering context — without materialising the
    whole stack. *)

val view : t -> int -> entry
(** Materialise a handle as an {!entry}. *)

(** {2 Materialising traversal} *)

val iter_overlaps :
  t ->
  (addr:int -> writers:entry list -> readers:entry list -> unit) ->
  unit
(** Visit every address accessed by both a writer and a reader; the
    entry lists are newest-first. *)

val writer_addresses : t -> int list
(** Ascending; read straight off the address bitset. *)

val reader_addresses : t -> int list

(** Map shape summary: distinct addresses and total entries per side. *)
type stats = {
  write_addrs : int;
  write_entries : int;
  read_addrs : int;
  read_entries : int;
}

val stats : t -> stats
(** O(1) — maintained incrementally by {!add}. *)
