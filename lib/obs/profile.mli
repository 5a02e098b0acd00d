(** Aggregate profile over a reconstructed {!Spantree}: per-span-name
    count, total (inclusive) and self (exclusive) wall and deterministic
    time, top-k hot paths, critical-path extraction, and folded-stacks
    flamegraph output. *)

type row = {
  r_name : string;
  r_count : int;
  r_wall_total : float;             (** inclusive wall seconds *)
  r_wall_self : float;              (** exclusive wall seconds *)
  r_det_total : int;                (** inclusive deterministic ticks *)
  r_det_self : int;                 (** exclusive deterministic ticks *)
}

type t = {
  rows : row list;                  (** wall total desc, det total desc, name *)
  total_spans : int;
  total_wall : float;               (** sum of root inclusive wall time *)
  total_det : int;
}

val of_tree : Spantree.t -> t
(** Instants contribute nothing; self time is clamped non-negative. *)

val find : t -> string -> row option

val fingerprint : t -> string
(** Hex digest of per-name counts only — the placement-invariant
    counterpart of {!Spantree.fingerprint}. *)

val critical_path : Spantree.t -> Spantree.node list
(** The chain of heaviest spans, heaviest root down to a leaf. Weight is
    inclusive wall time, falling back to deterministic time for
    deterministic exports. Empty for an empty trace. *)

val folded : Spantree.t -> string list
(** Folded-stacks lines ("root;child;leaf weight"), weight = self time
    in wall microseconds (deterministic ticks when no wall times).
    Feed to flamegraph.pl or speedscope. *)

val render_table : ?k:int -> t -> string

val render_critical_path : Spantree.t -> string
(** Text rendering; always contains the words "critical path". *)
