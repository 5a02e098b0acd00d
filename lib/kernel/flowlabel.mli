(** IPv6 flow-label management (paper, Figure 5; bugs #2 and #4).

    While no exclusive flow label exists, any label may be used
    unregistered; once one exists the kernel switches to strict
    management and rejects unregistered labels on data transmission
    (bug #2) and connection setup (bug #4). The buggy switch,
    ipv6_flowlabel_exclusive, is global rather than per net namespace;
    it is a jump-label static key, so under CONFIG_JUMP_LABEL its
    accesses are invisible to the profiler (section 6.1). *)

type t

val init : Heap.t -> Config.t -> t

val create :
  Ctx.t -> t -> netns:int -> label:int -> exclusive:bool ->
  (unit, Errno.t) result
(** Register a flow label; [EEXIST] if already registered in [netns]. *)

val check_send : Ctx.t -> t -> netns:int -> label:int -> (unit, Errno.t) result
(** Validate a label on the send path (bug #2). Label 0 means no flow
    label and is always admissible. *)

val check_connect :
  Ctx.t -> t -> netns:int -> label:int -> (unit, Errno.t) result
(** Validate a label on the connect path (bug #4). *)
