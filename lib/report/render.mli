(** Human-readable rendering of reports and aggregation groups — what a
    KIT user reads while triaging a campaign. *)

val report : Kit_detect.Report.t -> string

val groups : Aggregate.group list -> string
