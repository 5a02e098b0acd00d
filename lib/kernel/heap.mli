(** The kernel "heap": a registry of traced shared variables with
    synthetic addresses and whole-heap snapshot/restore — the model
    equivalent of a VM snapshot (paper, section 4.2).

    Restore is incremental in the style of QEMU dirty-page tracking: the
    heap tracks which cells were written since it last matched a
    snapshot, and restoring that same snapshot replays only those cells.
    Restoring a different snapshot (or [~full:true]) replays every
    captured cell. Both paths leave the heap in the same state; the
    equivalence is qcheck-property-tested. *)

type t

type snapshot

type delta
(** The cells a run dirtied, with their contents after the run. *)

(** Per-variable registration metadata, in boot order — the coverage
    universe the ledger ([Obs.Coverage]) is built from. *)
type varinfo = {
  v_name : string;
  v_addr : int;                     (** base address *)
  v_width : int;
  v_instrumented : bool;
}

val create : unit -> t

val register :
  t -> name:string -> width:int -> instrumented:bool ->
  (unit -> unit -> unit) -> int * int
(** [register t ~name ~width ~instrumented capture] reserves [width]
    bytes of synthetic address space for a cell whose [capture] function
    returns a restore thunk; returns [(base_addr, cell_id)]. The cell id
    must be passed to {!mark_dirty} whenever the cell's contents change.
    Used by {!Var.alloc}. *)

val vars : t -> varinfo list
(** Every registered variable, in registration order. Boot order is
    deterministic for a given config, so the list is identical across
    processes and domains running the same kernel. *)

val mark_dirty : t -> int -> unit
(** Record that a cell was written since the last snapshot/restore, so
    the next incremental restore replays it. Idempotent and O(1). *)

val snapshot : t -> snapshot
(** Capture the current contents of every registered cell. The heap is
    bit-identical to the fresh snapshot, so the dirty set resets and the
    next restore of this snapshot is already incremental. *)

val restore : ?full:bool -> t -> snapshot -> unit
(** Write a snapshot's contents back into the cells it captured.
    Incremental (dirty cells only) when the heap already matches the
    snapshot from a prior capture/restore; full otherwise, or when
    [~full:true] forces the naive path. With
    {!Kit_obs.Metrics.default} enabled, counts the cells it replayed in
    [heap.cells_restored] and those a full restore would have replayed
    in [heap.cells_total].
    @raise Invalid_argument if the snapshot was captured from a
    different heap. *)

val capture_dirty : t -> delta
(** The cells written since the heap last matched a snapshot (its last
    capture or restore), with their current contents: after a run from
    a fresh restore, that run's effect on the heap. *)

val apply : t -> delta -> unit
(** Write a delta's contents back into its cells and mark them dirty, as
    the captured run's writes did. Over a fresh restore of the snapshot
    the run started from, the heap then holds the run's end state and
    its dirty set, provided every cell written since the restore is one
    the delta holds (as a clock base set before the captured run is).
    @raise Invalid_argument if the delta was captured from another heap
    or relative to another snapshot than the heap matches. *)
