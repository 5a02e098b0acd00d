(** Ground-truth attribution of diagnosed reports.

    The paper's authors triage AGG-RS groups by hand (30 person-hours,
    section 6.4); the reproduction needs an executable oracle to fill
    Tables 2/4/6, mapping each culprit (sender, receiver) signature pair
    onto the bug it witnesses, a known false-positive class, or "under
    investigation". *)

type attribution =
  | Bug of Kit_kernel.Bugs.id
  | False_positive of string     (** FP class label *)
  | Under_investigation

val attribution_to_string : attribution -> string

val attribute_keyed : Kit_report.Aggregate.keyed -> attribution
(** Attribute one diagnosed report by its culprit pair's signatures. *)

val new_bugs_found : Kit_report.Aggregate.keyed list -> Kit_kernel.Bugs.id list
(** The set of Table 2 bugs witnessed by a report list, sorted. *)

val race_bugs_found : Kit_detect.Report.t list -> Kit_kernel.Bugs.id list
(** The set of seeded race-window bugs witnessed by a concurrent report
    list, sorted — what the CI e2e gate asserts completeness of.
    Concurrent (schedule-search) reports skip Algorithm 2 diagnosis, so
    there is no culprit signature pair: attribution reads each pair's
    syscall composition and the diff content directly. *)
