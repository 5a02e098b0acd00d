(* Decode raw syscall results into trace ASTs — the role strace's output
   decoding plays in the paper's implementation (section 5.2). The
   decoding is deliberately fine-grained: multi-line outputs become one
   child per line, stat buffers one child per field, so divergence is
   localised to the smallest result component.

   Decoding feeds the packed AST constructors directly: labels and
   values are hash-consed as the nodes are built, and the recurring
   labels ("callN:sysno", "lineN", "argN") and small numeric values
   come from preallocated tables instead of a fresh Printf per node.

   One decoder serves two cases. Without a baseline every call is
   decoded. With one — a receiver's solo run, kept as its per-call
   return values beside its decoded trace — a call whose return value
   equals the baseline's at the same index reuses the baseline's node,
   and a result list equal everywhere is the baseline's trace itself.
   Only the calls a sender changed are decoded. Reused nodes are the
   baseline's own, so the comparison meets them physically equal and
   skips them at once. The baseline must come from the same program:
   its calls, and so each node's label and arguments, are then the
   same at every index, and only return values need comparing. *)

module Program = Kit_abi.Program
module Value = Kit_abi.Value
module Sysno = Kit_abi.Sysno
module Sysret = Kit_kernel.Sysret
module Errno = Kit_kernel.Errno
module Interp = Kit_kernel.Interp
module Intern = Kit_compact.Intern

(* Positional labels repeat on every call of every trace; table the
   common indices once. The arrays are immutable after initialisation,
   so sharing them across domains is safe. *)
let positional prefix =
  let table = Array.init 64 (fun i -> Printf.sprintf "%s%d" prefix i) in
  fun i ->
    if i >= 0 && i < Array.length table then Array.unsafe_get table i
    else Printf.sprintf "%s%d" prefix i

let line_label = positional "line"
let arg_label = positional "arg"

(* "call<index>:<sysno>" for every sysno at indices below 64. *)
let call_labels =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun sysno ->
      Hashtbl.replace tbl sysno
        (Array.init 64 (fun i ->
             Printf.sprintf "call%d:%s" i (Sysno.to_string sysno))))
    Sysno.all;
  tbl

let call_label index sysno =
  if index >= 0 && index < 64 then
    Array.unsafe_get (Hashtbl.find call_labels sysno) index
  else Printf.sprintf "call%d:%s" index (Sysno.to_string sysno)

let int_value = Intern.string_of_small_int

let decode_payload = function
  | Sysret.P_none -> []
  | Sysret.P_str s ->
    let lines = String.split_on_char '\n' s in
    (match lines with
    | [] | [ _ ] -> [ Ast.leaf "out" s ]
    | _ :: _ ->
      [ Ast.node "out" (List.mapi (fun i l -> Ast.leaf (line_label i) l) lines)
      ])
  | Sysret.P_lines ls ->
    [ Ast.node "out" (List.mapi (fun i l -> Ast.leaf (line_label i) l) ls) ]
  | Sysret.P_stat st ->
    [ Ast.node "stat"
        [ Ast.leaf "ino" (int_value st.Sysret.inode);
          Ast.leaf "dev_minor" (int_value st.Sysret.dev_minor);
          Ast.leaf "size" (int_value st.Sysret.size);
          Ast.leaf "mtime" (int_value st.Sysret.mtime) ] ]

let decode_args args =
  List.mapi (fun i a -> Ast.leaf (arg_label i) (Value.to_string a)) args

(* One call result as an AST node. File descriptor return values are
   per-process and stable, so [ret] is deterministic by construction;
   the payload carries the interesting data. *)
let decode_result (r : Interp.result) =
  let call = r.Interp.call in
  let ret = r.Interp.ret in
  let base =
    [ Ast.leaf "ret" (int_value ret.Sysret.ret);
      Ast.leaf "errno"
        (match ret.Sysret.err with
        | None -> "0"
        | Some e -> Errno.to_string e) ]
  in
  Ast.node (call_label r.Interp.index call.Program.sysno)
    (decode_args call.Program.args @ base @ decode_payload ret.Sysret.out)

type baseline = {
  rets : Sysret.t array;   (* per-call return values, by call index *)
  trace : Ast.t;           (* their decoded trace, one child per call *)
}

(* Whether [results] return what the baseline's calls returned, call
   for call and no more or fewer. Allocates nothing. *)
let rec same_rets rets i = function
  | [] -> i = Array.length rets
  | (r : Interp.result) :: rest ->
    i < Array.length rets
    && Sysret.equal r.Interp.ret (Array.unsafe_get rets i)
    && same_rets rets (i + 1) rest

(* Each result's node: the baseline's call node [kid] where the return
   values agree, a fresh decode elsewhere and past the baseline's end. *)
let rec reuse rets i kids = function
  | [] -> []
  | (r : Interp.result) :: rest -> (
    match kids with
    | kid :: kids ->
      (if Sysret.equal r.Interp.ret rets.(i) then kid else decode_result r)
      :: reuse rets (i + 1) kids rest
    | [] -> decode_result r :: reuse rets (i + 1) [] rest)

(* A whole receiver execution as a single trace tree, decoded against
   baseline [b]; with [no_baseline], every call is decoded. *)
let decode_against b results =
  if same_rets b.rets 0 results then b.trace
  else Ast.node "trace" (reuse b.rets 0 b.trace.Ast.children results)

let no_baseline = { rets = [||]; trace = Ast.node "trace" [] }

let decode_trace results = decode_against no_baseline results

let baseline results =
  let ret (r : Interp.result) = r.Interp.ret in
  { rets = Array.of_list (List.map ret results); trace = decode_trace results }

let baseline_trace b = b.trace
