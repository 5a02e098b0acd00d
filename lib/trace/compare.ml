(* Algorithm 1 of the paper: recursive comparison of two system call
   trace ASTs. Traversal halts at any node whose det flag is false on
   either side; a difference is reported when two deterministic nodes
   disagree on value or child count, otherwise children are compared
   pairwise.

   The packed representation adds a sound short-circuit: a diff can only
   arise from a value or child-count mismatch, and [Ast.hash] equality
   implies the two subtrees agree on labels, values and shape everywhere
   (det flags excluded — which cannot create a diff, only suppress
   descent into an already diff-free subtree). So hash-equal subtrees
   are skipped wholesale, making the common all-agreeing comparison
   O(1) instead of O(nodes). *)

type diff = {
  path : string list;          (* labels from the root to the node *)
  left : Ast.t;
  right : Ast.t;
}

let pp_diff ppf d =
  Fmt.pf ppf "%s: %s=%S vs %S (%d vs %d children)"
    (String.concat "/" d.path)
    d.left.Ast.label d.left.Ast.value d.right.Ast.value
    d.left.Ast.nkids d.right.Ast.nkids

(* SyscallTraceCmp(Ta, Tb) — returns the differing node pairs. *)
let diff_trees ta tb =
  let rec cmp path ta tb acc =
    if ta == tb || ta.Ast.hash = tb.Ast.hash then acc
    else if not (ta.Ast.det && tb.Ast.det) then acc
    else if
      (not (String.equal ta.Ast.value tb.Ast.value))
      || ta.Ast.nkids <> tb.Ast.nkids
    then
      { path = List.rev (ta.Ast.label :: path); left = ta; right = tb }
      :: acc
    else
      List.fold_left2
        (fun acc ca cb -> cmp (ta.Ast.label :: path) ca cb acc)
        acc ta.Ast.children tb.Ast.children
  in
  List.rev (cmp [] ta tb [])

(* A schedule-independent identity for a diff list (FNV-1a). Two
   executions exposing the same root cause — the same nodes disagreeing
   in the same way — fingerprint equal regardless of which schedule
   seed produced them, so concurrent reports found by N seeds collapse
   to one. Node values and labels are folded in, not physical node
   identity, so structurally equal diffs from different executions
   agree. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x4bf29ce484222325 (* FNV-1a 64-bit basis, truncated to OCaml's 63-bit int *)

let fingerprint_diffs diffs =
  let fold_byte h b = (h lxor b) * fnv_prime in
  let fold_string h s =
    let h = ref h in
    String.iter (fun c -> h := fold_byte !h (Char.code c)) s;
    fold_byte !h 0xFF
  in
  let fold_int h i =
    let h = fold_byte h (i land 0xFF) in
    let h = fold_byte h ((i lsr 8) land 0xFF) in
    let h = fold_byte h ((i lsr 16) land 0xFF) in
    fold_byte h ((i lsr 24) land 0xFF)
  in
  let fold_diff h d =
    let h = List.fold_left fold_string h d.path in
    let h = fold_string h d.left.Ast.value in
    let h = fold_string h d.right.Ast.value in
    let h = fold_int h d.left.Ast.nkids in
    fold_int h d.right.Ast.nkids
  in
  List.fold_left fold_diff fnv_basis diffs land max_int

(* The receiver syscall indices whose subtrees differ. Trace roots have
   one "callN:..." child per syscall; a diff at the root itself (call
   count mismatch) maps to index 0. *)
let call_index_of_label label =
  if String.length label > 4 && String.equal (String.sub label 0 4) "call" then
    let rest = String.sub label 4 (String.length label - 4) in
    match String.index_opt rest ':' with
    | Some i -> int_of_string_opt (String.sub rest 0 i)
    | None -> int_of_string_opt rest
  else None

(* Indices from already-computed diffs, so callers that need both the
   diff list and the indices run the tree comparison once. *)
let interfered_of_diffs diffs =
  let index_of d =
    match d.path with
    | _root :: call_label :: _ -> call_index_of_label call_label
    | [ root_label ] -> (
      match call_index_of_label root_label with Some i -> Some i | None -> Some 0)
    | [] -> Some 0
  in
  let indices = List.filter_map index_of diffs in
  List.sort_uniq Int.compare indices
