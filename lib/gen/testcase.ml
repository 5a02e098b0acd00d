(* A functional interference test case: a sender and a receiver program
   (by corpus index), plus — for data-flow-generated cases — the witness
   inter-container data flow that motivated the pairing. *)

module Fnv = Kit_compact.Fnv

type flow = {
  addr : int;
  w_ip : int;
  r_ip : int;
  w_stack : int list;        (* innermost first *)
  r_stack : int list;
  r_sys_index : int;         (* receiver syscall performing the read *)
}

type t = {
  sender : int;              (* corpus index *)
  receiver : int;
  flow : flow option;        (* None for randomly generated cases *)
}

(* Total order. Corpus order (sender, then receiver) first; ties — two
   clusters whose representatives pair the same programs through
   different flows — fall back to the witness flow, so sorting and
   min-selection are independent of hash-table iteration order. The
   online clustering mode relies on this: batch and streaming encounter
   representative candidates in different orders, and only a total order
   makes their minima coincide. *)
let compare_flow (a : flow) (b : flow) =
  let c = Int.compare a.addr b.addr in
  if c <> 0 then c
  else
    let c = Int.compare a.w_ip b.w_ip in
    if c <> 0 then c
    else
      let c = Int.compare a.r_ip b.r_ip in
      if c <> 0 then c
      else
        let c = Int.compare a.r_sys_index b.r_sys_index in
        if c <> 0 then c
        else
          let c = List.compare Int.compare a.w_stack b.w_stack in
          if c <> 0 then c else List.compare Int.compare a.r_stack b.r_stack

let compare a b =
  let c = Int.compare a.sender b.sender in
  if c <> 0 then c
  else
    let c = Int.compare a.receiver b.receiver in
    if c <> 0 then c
    else Option.compare compare_flow a.flow b.flow

(* Streaming FNV over the testcase fields: no serialised copy, no MD5,
   and process-stable (ints only — no pointers, no hash randomisation).
   Stacks are length-prefixed so adjacent lists cannot alias. *)
let fingerprint t =
  let ints h l = List.fold_left Fnv.int (Fnv.int h (List.length l)) l in
  let h = Fnv.int Fnv.init t.sender in
  let h = Fnv.int h t.receiver in
  let h =
    match t.flow with
    | None -> Fnv.int h 0
    | Some f ->
      let h = Fnv.int h 1 in
      let h = Fnv.int h f.addr in
      let h = Fnv.int h f.w_ip in
      let h = Fnv.int h f.r_ip in
      let h = Fnv.int h f.r_sys_index in
      let h = ints h f.w_stack in
      ints h f.r_stack
  in
  Fnv.to_hex h

let pp ppf t =
  match t.flow with
  | None -> Fmt.pf ppf "tc(s=%d,r=%d,rand)" t.sender t.receiver
  | Some f ->
    Fmt.pf ppf "tc(s=%d,r=%d,addr=%d,wip=%d,rip=%d)" t.sender t.receiver
      f.addr f.w_ip f.r_ip
