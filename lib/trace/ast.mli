(** Abstract syntax trees of system call traces (paper, section 4.3.2).

    Comparing ASTs instead of trace text lets the analysis ignore
    individual non-deterministic result fields (a timestamp inside an
    otherwise deterministic stat buffer) without discarding whole calls.
    Each node carries a [det] flag, true by default; the non-determinism
    pass clears it on nodes whose value or child count varies across
    re-executions.

    Nodes are packed: labels and values are hash-consed strings, and
    every node precomputes its child count, subtree size, subtree
    non-det count and a structural content hash (det flags excluded).
    [hash] equality implies the comparison of the two subtrees yields no
    diffs, which lets {!Compare} and {!Nondet} skip whole subtrees. The
    record is private so the derived fields can never go stale; build
    nodes with {!leaf}, {!node}, {!with_det} and {!with_flags}. *)

type t = private {
  label : string;
  value : string;        (** leaf payload; [""] on interior nodes *)
  det : bool;
  nkids : int;           (** [List.length children] *)
  size : int;            (** nodes in this subtree *)
  ndet : int;            (** non-deterministic nodes in this subtree *)
  hash : int;            (** structural content hash, det-independent *)
  children : t list;
}

val leaf : ?det:bool -> string -> string -> t
val node : ?det:bool -> string -> t list -> t
val with_det : t -> bool -> t

val with_flags : t -> det:bool -> t list -> t
(** [with_flags t ~det children] rebuilds [t] with new det flags and
    det-reflagged copies of its own children. The children must be
    structurally identical to [t.children] (only det flags may differ):
    hash, size and child count are carried over unchanged. *)

val to_string : t -> string

val equal : t -> t -> bool
(** Deep structural equality, det flags included. *)

val size : t -> int
(** O(1). *)

val count_nondet : t -> int
(** O(1). *)

val all_det : t -> bool
(** No non-deterministic node anywhere in the subtree. O(1). *)

(** The plain record layout trace nodes had before packing — the
    representation the reference algorithms in the tests run on. *)
module Legacy : sig
  type ast = {
    l_label : string;
    l_value : string;
    l_det : bool;
    l_children : ast list;
  }
end

val of_legacy : Legacy.ast -> t
val to_legacy : t -> Legacy.ast
