(* The kernel "heap": a registry of traced shared variables with
   synthetic addresses and whole-heap snapshot/restore — the model
   equivalent of a VM snapshot (paper, section 4.2). Each registered cell
   knows how to capture and restore its own contents; variables hold
   immutable values, so a snapshot is an array of restore thunks indexed
   by cell id.

   Restore is the hottest operation in a campaign (2 + reruns per test
   case), so it is incremental in the style of QEMU dirty-page tracking:
   the heap remembers which snapshot its cells last matched
   ([last_restored]) and which cells were written since ([dirty]).
   Restoring that same snapshot again replays only the dirty cells;
   restoring any other snapshot — or passing [~full:true] — replays the
   whole thunk array. [Var] write paths call {!mark_dirty} behind a
   single branch, which is what keeps the bookkeeping off the read path
   entirely.

   A run's end state is its starting snapshot plus the cells it dirtied,
   so [capture_dirty] after the run and [apply] after a later restore of
   the same snapshot reproduce that state without the run: the runner
   replays a sender this way instead of re-running it.

   Heaps, snapshots and deltas carry ids so that restoring a snapshot
   (or applying a delta) into a different kernel's heap is an error
   instead of a silent cross-kernel state splice. *)

module Metrics = Kit_obs.Metrics

(* Registry-backed visibility for `kit stats`: how many cells restore
   actually replayed vs what a full restore would have. Interned eagerly
   at module load — a [Lazy] here would race under domains. *)
let m_cells_restored = Metrics.counter Metrics.default "heap.cells_restored"
let m_cells_total = Metrics.counter Metrics.default "heap.cells_total"

type cell = {
  capture : unit -> unit -> unit;   (* capture now, apply later *)
}

(* Per-variable registration metadata, in boot order. Boot is
   deterministic for a given config, so this doubles as the coverage
   universe: the ledger (Obs.Coverage) maps each synthetic base address
   back to the variable it belongs to. *)
type varinfo = {
  v_name : string;
  v_addr : int;                     (* base address *)
  v_width : int;
  v_instrumented : bool;
}

type t = {
  id : int;                         (* process-unique heap identity *)
  mutable next_addr : int;
  mutable cells : cell array;       (* indexed by cell id; n_cells used *)
  mutable n_cells : int;
  mutable dirty : bool array;       (* same indexing as [cells] *)
  mutable dirty_ids : int list;     (* ids with [dirty.(id)] set *)
  mutable rev_vars : varinfo list;  (* registration order, reversed *)
  mutable last_restored : int;      (* snap id the cells match, or -1 *)
  mutable next_snap : int;          (* per-heap snapshot id source *)
}

type snapshot = {
  s_heap : int;                     (* owning heap's [id] *)
  s_id : int;
  thunks : (unit -> unit) array;
}

(* The cells dirtied since the heap last matched snapshot [d_snap], with
   their contents when captured, in [dirty_ids] order. *)
type delta = {
  d_heap : int;                     (* owning heap's [id] *)
  d_snap : int;
  d_ids : int array;
  d_thunks : (unit -> unit) array;  (* same indexing as [d_ids] *)
}

let next_heap_id = Atomic.make 0

let dummy_cell = { capture = (fun () () -> ()) }

let create () =
  { id = Atomic.fetch_and_add next_heap_id 1;
    next_addr = 0x1000;
    cells = Array.make 64 dummy_cell;
    n_cells = 0;
    dirty = Array.make 64 false;
    dirty_ids = [];
    rev_vars = [];
    last_restored = -1;
    next_snap = 0 }

(* Reserve [width] bytes of synthetic address space and register the
   cell's capture function. Returns the base address and the cell id the
   variable must pass back to [mark_dirty] on writes. *)
let register t ~name ~width ~instrumented capture =
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + max 1 width;
  let id = t.n_cells in
  if id = Array.length t.cells then begin
    let cells = Array.make (2 * id) dummy_cell in
    Array.blit t.cells 0 cells 0 id;
    t.cells <- cells;
    let dirty = Array.make (2 * id) false in
    Array.blit t.dirty 0 dirty 0 id;
    t.dirty <- dirty
  end;
  t.cells.(id) <- { capture };
  t.n_cells <- id + 1;
  t.rev_vars <-
    { v_name = name; v_addr = addr; v_width = max 1 width;
      v_instrumented = instrumented }
    :: t.rev_vars;
  (addr, id)

let vars t = List.rev t.rev_vars

let mark_dirty t id =
  if not t.dirty.(id) then begin
    t.dirty.(id) <- true;
    t.dirty_ids <- id :: t.dirty_ids
  end

let clear_dirty t =
  List.iter (fun id -> t.dirty.(id) <- false) t.dirty_ids;
  t.dirty_ids <- []

(* Capturing a snapshot leaves the heap bit-identical to it, so the
   dirty set resets and the heap now "matches" the new snapshot: the
   first restore after a capture is already incremental. *)
let snapshot t =
  let thunks = Array.init t.n_cells (fun i -> t.cells.(i).capture ()) in
  let s_id = t.next_snap in
  t.next_snap <- s_id + 1;
  clear_dirty t;
  t.last_restored <- s_id;
  { s_heap = t.id; s_id; thunks }

let restore ?(full = false) t snap =
  if snap.s_heap <> t.id then
    invalid_arg "Heap.restore: snapshot belongs to a different heap";
  let n = Array.length snap.thunks in
  let replayed =
    if (not full) && t.last_restored = snap.s_id then begin
      (* Cells registered after the capture have no thunk (id >= n); a
         full restore would not touch them either, so skipping keeps the
         two paths equivalent. *)
      let replayed = ref 0 in
      List.iter
        (fun id ->
          if id < n then begin
            snap.thunks.(id) ();
            incr replayed
          end)
        t.dirty_ids;
      !replayed
    end
    else begin
      Array.iter (fun thunk -> thunk ()) snap.thunks;
      n
    end
  in
  clear_dirty t;
  t.last_restored <- snap.s_id;
  if Metrics.enabled Metrics.default then begin
    Metrics.add m_cells_restored replayed;
    Metrics.add m_cells_total n
  end

let capture_dirty t =
  let d_ids = Array.of_list t.dirty_ids in
  { d_heap = t.id; d_snap = t.last_restored; d_ids;
    d_thunks = Array.map (fun id -> t.cells.(id).capture ()) d_ids }

(* Oldest first, so the dirty list comes out as the captured run left
   it and the next restore replays the same cells in the same order. *)
let apply t d =
  if d.d_heap <> t.id || d.d_snap <> t.last_restored then
    invalid_arg "Heap.apply: delta belongs to another heap or snapshot";
  for i = Array.length d.d_ids - 1 downto 0 do
    d.d_thunks.(i) ();
    mark_dirty t d.d_ids.(i)
  done
