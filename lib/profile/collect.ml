(* Per-program kernel-footprint profiling (paper, section 4.1.1). Every
   program is profiled in the same execution environment: a kernel booted
   once with two container processes and snapshotted; the snapshot is
   reloaded before each program runs, so profiles are comparable. *)

module Program = Kit_abi.Program
module State = Kit_kernel.State
module Interp = Kit_kernel.Interp
module Ctx = Kit_kernel.Ctx

type role = Sender | Receiver

type profile = {
  accesses : Stackrec.access list;     (* deduplicated, attributed *)
  results : Interp.result list;        (* the syscall trace of the run *)
}

type t = {
  kernel : State.t;
  snapshot : State.snapshot;
  sender_pid : int;
  receiver_pid : int;
}

(* Boot the profiling environment: kernel, two containers, snapshot. *)
let create config =
  let kernel = State.boot config in
  let sender_pid = State.spawn_container kernel in
  let receiver_pid = State.spawn_container kernel in
  let snapshot = State.snapshot kernel in
  { kernel; snapshot; sender_pid; receiver_pid }

let pid_of_role t = function
  | Sender -> t.sender_pid
  | Receiver -> t.receiver_pid

(* The profiled kernel's shared-variable registry, in boot order — the
   coverage ledger's raw universe. *)
let vars t = Kit_kernel.Heap.vars t.kernel.State.heap

(* Profile one program in [role]'s container, from a fresh snapshot. *)
let profile t ~role prog =
  State.restore t.kernel t.snapshot;
  let events = ref [] in
  let sink ev = events := ev :: !events in
  let results =
    Ctx.with_sink t.kernel.State.ctx sink (fun () ->
        Interp.run t.kernel ~pid:(pid_of_role t role) prog)
  in
  let accesses = Stackrec.dedup (Stackrec.replay (List.rev !events)) in
  { accesses; results }

