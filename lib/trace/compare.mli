(** Algorithm 1 of the paper: recursive comparison of two syscall-trace
    ASTs. Traversal halts at any node whose det flag is false on either
    side; a difference is reported when two deterministic nodes disagree
    on value or child count, otherwise children are compared pairwise.
    Subtrees with equal {!Ast.t.hash} are skipped wholesale — hash
    equality implies the comparison yields no diffs. *)

type diff = {
  path : string list;          (** labels from the root to the node *)
  left : Ast.t;
  right : Ast.t;
}

val pp_diff : Format.formatter -> diff -> unit

val diff_trees : Ast.t -> Ast.t -> diff list
(** SyscallTraceCmp — the differing node pairs, in traversal order. *)

val fingerprint_diffs : diff list -> int
(** A schedule-independent identity for a diff list: folds each diff's
    path, values and child counts through FNV-1a. Structurally equal
    diff lists — the same root cause exposed by different schedule
    seeds — fingerprint equal; non-negative. *)

val interfered_of_diffs : diff list -> int list
(** The receiver syscall indices named by an already-computed diff
    list, sorted and deduplicated: the [N] of each diff's
    ["callN:name"] call label, or 0 for a diff at the trace root (a
    call count mismatch). Avoids re-running the tree comparison when
    the diffs are already in hand. *)
