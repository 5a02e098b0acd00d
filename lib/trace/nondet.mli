(** Non-deterministic result identification (paper, section 4.3.2): the
    receiver program is re-run with different starting times; nodes
    whose value or child count varies get their det flag cleared, and
    the flags are applied to the traces under comparison so Algorithm 1
    skips them. *)

val mark : Ast.t -> Ast.t list -> Ast.t
(** [mark reference alternatives] is [reference] with det cleared on
    every node that disagrees with any alternative run. When child
    counts disagree the node itself becomes non-deterministic and
    descent stops — mirroring where Algorithm 1 would halt. *)

val apply_mask : Ast.t -> Ast.t -> Ast.t
(** [apply_mask mask tree] clears det flags in [tree] positionally
    wherever [mask] has them cleared. Children beyond the mask's shape
    keep their own flags: a deterministic extra line added by a sender
    must stay visible to the comparison. *)
