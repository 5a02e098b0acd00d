(** Decode raw syscall results into trace ASTs — the role strace's
    output decoding plays in the paper (section 5.2). Deliberately
    fine-grained: multi-line outputs become one child per line, stat
    buffers one child per field, so divergence is localised to the
    smallest result component. *)

val call_label : int -> Kit_abi.Sysno.t -> string
(** [call_label index sysno] is ["call<index>:<name>"], from a table
    built once for indices below 64. *)

val decode_result : Kit_kernel.Interp.result -> Ast.t
(** One call result as a ["callN:name"] node with argument, ret, errno
    and payload children. *)

val decode_trace : Kit_kernel.Interp.result list -> Ast.t
(** A whole receiver execution as a single ["trace"] tree. *)
