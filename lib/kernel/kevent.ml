(* Kernel execution-trace events, the vocabulary produced by the
   instrumentation (paper, section 5.1): function entry, function exit and
   memory access, in chronological order. The instruction address [ip] of
   a memory access is a stable synthetic identifier of the access site,
   derived from the accessing kernel function and the variable address. *)

type rw = Read | Write

let rw_to_string = function Read -> "R" | Write -> "W"

type mem = {
  addr : int;
  width : int;
  rw : rw;
  ip : int;
}

type t =
  | Fn_enter of int            (* kernel function id *)
  | Fn_exit of int
  | Sys_enter of int           (* index of the syscall within the program *)
  | Sys_exit of int
  | Mem of mem

(* Synthetic instruction address: a deterministic mix of the innermost
   function id, its immediate caller, the variable address and the access
   direction. Including the caller models how helper functions are
   inlined into their call sites in a real kernel build, giving each
   inlined copy its own instrumentation-site address — the granularity
   the DF-IA clustering strategy keys on. *)
let ip_of ~fn ~caller ~addr ~rw =
  let rwbit = match rw with Read -> 1 | Write -> 2 in
  let h =
    (fn * 0x9E3779B1) lxor (caller * 0x7FEB352D)
    lxor (addr * 0x85EBCA77) lxor (rwbit * 0xC2B2AE35)
  in
  h land 0x3FFFFFFF
