(** Human-readable rendering of reports and aggregation groups — what a
    KIT user reads while triaging a campaign. *)

val groups : Aggregate.group list -> string
(** Each group's header, then its representative report: the sender
    and receiver programs, the interfered receiver calls and the
    trace diffs. *)
