(* The coverage ledger. See coverage.mli.

   Representation: four packed bitsets (touched/written/read/attributed)
   over the universe index, plus addr→index and name→index tables. The
   universe is fixed at creation — marks for unknown addresses are
   dropped, which is what scopes the ledger to the spec-listed
   namespace-protected variables and keeps the hot marking path a
   hashtable probe plus a bit set. A ledger is never shipped between
   processes: every mark is recomputed from profiling and from the
   folded case results, which is what makes it schedule-invariant. *)

module Bitset = Kit_compact.Bitset

type t = {
  names : string array;               (* universe, registration order *)
  addrs : int array;
  by_addr : (int, int) Hashtbl.t;
  touched : Bitset.t;
  written : Bitset.t;
  read : Bitset.t;
  attributed : Bitset.t;
}

type state = Untouched | Touched | Written | Read | Paired | Attributed

let state_name = function
  | Untouched -> "untouched"
  | Touched -> "touched"
  | Written -> "written"
  | Read -> "read"
  | Paired -> "paired"
  | Attributed -> "attributed"

let create vars =
  let n = List.length vars in
  let names = Array.make (max 1 n) "" and addrs = Array.make (max 1 n) 0 in
  List.iteri
    (fun i (name, addr) ->
      names.(i) <- name;
      addrs.(i) <- addr)
    vars;
  let names = Array.sub names 0 n and addrs = Array.sub addrs 0 n in
  let by_addr = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i addr -> Hashtbl.replace by_addr addr i) addrs;
  { names; addrs; by_addr;
    touched = Bitset.create (max 1 n);
    written = Bitset.create (max 1 n);
    read = Bitset.create (max 1 n);
    attributed = Bitset.create (max 1 n) }

let size t = Array.length t.names

(* Flag bits. *)
let f_touched = 1
let f_written = 2
let f_read = 4
let f_attributed = 8
let f_mask = 15

(* Higher rungs imply the lower ones, so every mark closes downward:
   the state machine can only move forward. *)
let set_flags t i flags =
  if flags land f_touched <> 0 then Bitset.add t.touched i;
  if flags land f_written <> 0 then Bitset.add t.written i;
  if flags land f_read <> 0 then Bitset.add t.read i;
  if flags land f_attributed <> 0 then Bitset.add t.attributed i

let mark t ~addr flags =
  match Hashtbl.find_opt t.by_addr addr with
  | None -> ()                         (* outside the protected universe *)
  | Some i -> set_flags t i flags

let mark_touched t ~addr = mark t ~addr f_touched
let mark_written t ~addr = mark t ~addr (f_written lor f_touched)
let mark_read t ~addr = mark t ~addr (f_read lor f_touched)

let mark_attributed t ~addr =
  (* A report's data flow is an overlapping (write, read) pair by
     construction, so attribution implies every rung below it. *)
  mark t ~addr f_mask

let state t i =
  if Bitset.mem t.attributed i then Attributed
  else if Bitset.mem t.written i && Bitset.mem t.read i then Paired
  else if Bitset.mem t.read i then Read
  else if Bitset.mem t.written i then Written
  else if Bitset.mem t.touched i then Touched
  else Untouched

type summary = {
  sum_vars : int;
  sum_touched : int;
  sum_written : int;
  sum_read : int;
  sum_paired : int;
  sum_attributed : int;
  sum_gaps : int;
}

let summary t =
  let paired = Bitset.inter_count t.written t.read in
  { sum_vars = size t;
    sum_touched = Bitset.cardinal t.touched;
    sum_written = Bitset.cardinal t.written;
    sum_read = Bitset.cardinal t.read;
    sum_paired = paired;
    sum_attributed = Bitset.cardinal t.attributed;
    sum_gaps = size t - paired }

let gaps t =
  let out = ref [] in
  for i = size t - 1 downto 0 do
    if not (Bitset.mem t.written i && Bitset.mem t.read i) then
      out := t.names.(i) :: !out
  done;
  !out

(* -- rendering ------------------------------------------------------------ *)

let jsonl_summary t =
  let s = summary t in
  Jsonl.Obj
    [ ("k", Jsonl.Str "covsum"); ("vars", Jsonl.Int s.sum_vars);
      ("touched", Jsonl.Int s.sum_touched);
      ("written", Jsonl.Int s.sum_written); ("read", Jsonl.Int s.sum_read);
      ("paired", Jsonl.Int s.sum_paired);
      ("attributed", Jsonl.Int s.sum_attributed);
      ("gaps", Jsonl.Int s.sum_gaps) ]

let jsonl_lines t =
  let var_line i =
    Jsonl.to_string
      (Jsonl.Obj
         [ ("k", Jsonl.Str "cov"); ("var", Jsonl.Str t.names.(i));
           ("addr", Jsonl.Int t.addrs.(i));
           ("state", Jsonl.Str (state_name (state t i))) ])
  in
  Jsonl.to_string (jsonl_summary t)
  :: List.init (size t) var_line

let render t =
  let buf = Buffer.create 1024 in
  let s = summary t in
  Printf.bprintf buf
    "coverage: %d protected vars — %d touched, %d written, %d read, \
     %d paired, %d attributed to reports\n"
    s.sum_vars s.sum_touched s.sum_written s.sum_read s.sum_paired
    s.sum_attributed;
  Printf.bprintf buf "-- per-variable states --\n";
  for i = 0 to size t - 1 do
    Printf.bprintf buf "%-28s %s\n" t.names.(i) (state_name (state t i))
  done;
  (match gaps t with
  | [] -> Printf.bprintf buf "\nno coverage gaps: every var has a pair\n"
  | gs ->
    Printf.bprintf buf
      "\n%d gap(s) — no overlapping (write, read) pair observed:\n"
      (List.length gs);
    List.iter (fun name -> Printf.bprintf buf "  gap: %s\n" name) gs);
  Buffer.contents buf
