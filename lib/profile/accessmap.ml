(* The multi-dimensional kernel memory access map (paper, section 5.1):
   keyed by address with the write/read flag, instruction address and
   call-stack hash preserved per entry, mapping to the test programs that
   performed the access. Pairing writers with readers of the same address
   yields the candidate inter-container data flows.

   Storage is a flat int arena instead of one list cell plus record per
   access: an entry is [stride] consecutive ints in [cells], its stack
   frames live in the shared [frames] arena, and the per-address
   writer/reader chains are intrusive — each entry's [next] slot points
   at the previously added entry for the same (address, side). Chains
   therefore iterate newest-first, exactly the order the old per-address
   [entry list] had, so group tie-breaks downstream are unchanged.

   The address universes are tracked as packed bitsets (addresses are
   small dense ints handed out by Heap.register), which makes
   writer/reader address listing and the overlap walk O(words) set
   operations rather than map traversals. *)

module Kevent = Kit_kernel.Kevent
module Bitset = Kit_compact.Bitset

type entry = {
  prog : int;                    (* corpus index *)
  sys_index : int;               (* syscall index inside the program *)
  ip : int;
  stack : int list;
  stack_hash : int;
}

(* Entry layout in [cells]: prog, sys_index, ip, stack_hash, stack_off,
   stack_len, next (absolute handle of the previous entry on this
   address's chain, or -1). A handle is the entry's base offset. *)
let stride = 7
let off_prog = 0
let off_sys_index = 1
let off_ip = 2
let off_stack_hash = 3
let off_stack_off = 4
let off_stack_len = 5
let off_next = 6

type chain = { mutable head : int; mutable count : int }

type t = {
  mutable cells : int array;
  mutable used : int;                     (* cells in use *)
  mutable frames : int array;
  mutable frames_used : int;
  writers : (int, chain) Hashtbl.t;       (* addr -> newest-first chain *)
  readers : (int, chain) Hashtbl.t;
  waddrs : Bitset.t;
  raddrs : Bitset.t;
  mutable wentries : int;
  mutable rentries : int;
}

let create () =
  { cells = Array.make (64 * stride) 0; used = 0;
    frames = Array.make 256 0; frames_used = 0;
    writers = Hashtbl.create 64; readers = Hashtbl.create 64;
    waddrs = Bitset.create 4096; raddrs = Bitset.create 4096;
    wentries = 0; rentries = 0 }

let grow arr used need =
  if used + need <= Array.length arr then arr
  else begin
    let bigger = Array.make (max (used + need) (2 * Array.length arr)) 0 in
    Array.blit arr 0 bigger 0 used;
    bigger
  end

let push_frames t stack =
  t.frames <- grow t.frames t.frames_used (List.length stack);
  let off = t.frames_used in
  List.iter
    (fun f ->
      t.frames.(t.frames_used) <- f;
      t.frames_used <- t.frames_used + 1)
    stack;
  (off, t.frames_used - off)

let push_entry t ~prog ~sys_index ~ip ~stack ~stack_hash ~next =
  t.cells <- grow t.cells t.used stride;
  let h = t.used in
  t.used <- h + stride;
  let off, len = push_frames t stack in
  t.cells.(h + off_prog) <- prog;
  t.cells.(h + off_sys_index) <- sys_index;
  t.cells.(h + off_ip) <- ip;
  t.cells.(h + off_stack_hash) <- stack_hash;
  t.cells.(h + off_stack_off) <- off;
  t.cells.(h + off_stack_len) <- len;
  t.cells.(h + off_next) <- next;
  h

(* Fold the accesses of program [prog] into the map. *)
let add t ~prog (accesses : Stackrec.access list) =
  List.iter
    (fun (a : Stackrec.access) ->
      let table, addrs =
        match a.Stackrec.rw with
        | Kevent.Write ->
          t.wentries <- t.wentries + 1;
          (t.writers, t.waddrs)
        | Kevent.Read ->
          t.rentries <- t.rentries + 1;
          (t.readers, t.raddrs)
      in
      let addr = a.Stackrec.addr in
      let chain =
        match Hashtbl.find_opt table addr with
        | Some c -> c
        | None ->
          let c = { head = -1; count = 0 } in
          Hashtbl.add table addr c;
          Bitset.add addrs addr;
          c
      in
      let h =
        push_entry t ~prog ~sys_index:a.Stackrec.sys_index ~ip:a.Stackrec.ip
          ~stack:a.Stackrec.stack ~stack_hash:a.Stackrec.stack_hash
          ~next:chain.head
      in
      chain.head <- h;
      chain.count <- chain.count + 1)
    accesses

(* -- handle accessors ------------------------------------------------------ *)

let e_prog t h = t.cells.(h + off_prog)
let e_sys_index t h = t.cells.(h + off_sys_index)
let e_ip t h = t.cells.(h + off_ip)
let e_stack_hash t h = t.cells.(h + off_stack_hash)
let e_next t h = t.cells.(h + off_next)

let e_stack t h =
  let off = t.cells.(h + off_stack_off) in
  let len = t.cells.(h + off_stack_len) in
  let rec build i acc =
    if i < off then acc else build (i - 1) (t.frames.(i) :: acc)
  in
  build (off + len - 1) []

(* The [k] frames starting two above the instrumentation site — the
   DF-ST clustering context, built without materialising the whole
   stack. Matches [ctx k stack] on the materialised list. *)
let e_context t h ~k =
  let off = t.cells.(h + off_stack_off) in
  let len = t.cells.(h + off_stack_len) in
  if len <= 1 then []
  else
    let stop = min (off + len) (off + 2 + k) in
    let rec build i acc =
      if i < off + 2 then acc else build (i - 1) (t.frames.(i) :: acc)
    in
    build (stop - 1) []

let view t h =
  { prog = e_prog t h; sys_index = e_sys_index t h; ip = e_ip t h;
    stack = e_stack t h; stack_hash = e_stack_hash t h }

let iter_chain t head f =
  let h = ref head in
  while !h >= 0 do
    f !h;
    h := e_next t !h
  done

(* -- traversal ------------------------------------------------------------- *)

(* Visit every address on both sides, as chain handles: the overlap is
   the intersection of the two address bitsets, walked in ascending
   address order. *)
let iter_overlap_chains t f =
  Bitset.iter
    (fun addr ->
      if Bitset.mem t.raddrs addr then
        let w = Hashtbl.find t.writers addr in
        let r = Hashtbl.find t.readers addr in
        f ~addr ~whead:w.head ~wcount:w.count ~rhead:r.head ~rcount:r.count)
    t.waddrs

type stats = {
  write_addrs : int;
  write_entries : int;
  read_addrs : int;
  read_entries : int;
}

(* O(1): the counters are maintained on [add]. *)
let stats t =
  { write_addrs = Hashtbl.length t.writers;
    write_entries = t.wentries;
    read_addrs = Hashtbl.length t.readers;
    read_entries = t.rentries }
