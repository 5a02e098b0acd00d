(** Decode raw syscall results into trace ASTs — the role strace's
    output decoding plays in the paper (section 5.2). Deliberately
    fine-grained: multi-line outputs become one child per line, stat
    buffers one child per field, so divergence is localised to the
    smallest result component. *)

type baseline
(** A receiver's solo run as a decode baseline: its per-call return
    values beside its decoded trace. *)

val baseline : Kit_kernel.Interp.result list -> baseline
(** Decode a run in full and keep its return values. *)

val baseline_trace : baseline -> Ast.t
(** The decoded trace of a baseline. *)

val decode_against : baseline -> Kit_kernel.Interp.result list -> Ast.t
(** A whole receiver execution as a single ["trace"] tree, decoded
    against a baseline run of the same program: a call whose return
    value equals the baseline's at its index ({!Kit_kernel.Sysret.equal})
    reuses the baseline's node, and a result list equal everywhere is
    {!baseline_trace} itself, at no allocation. The tree is structurally
    equal to {!decode_trace}'s. *)

val decode_trace : Kit_kernel.Interp.result list -> Ast.t
(** {!decode_against} with no baseline: every call decoded. *)
