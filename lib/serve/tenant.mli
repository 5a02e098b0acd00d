(** One tenant of the [kit serve] scheduler: a submitted campaign on
    {!Kit_core.Campaign}'s one execute driver, with the shared pool as
    its executor.

    A tenant is a spec, a phase, the deficit-round-robin counters
    {!Sched} keeps on it, a campaign run while it is active, and a
    case-result log that outlives activations. Per-case results are
    schedule-independent, so a tenant finished under any interleaving
    builds the same campaign a solo [kit campaign] run produces — the
    cross-check behind the serve CI gate. Corpus generation is
    prefix-stable, so both daemon resume and {!extend} replay the
    logged results of unchanged representatives instead of executing
    them again. *)

type phase =
  | Pending      (** admitted, waiting for an activation slot *)
  | Active       (** clusters generated, representatives executing *)
  | Finished     (** {!summary} and {!result} available *)
  | Cancelled
  | Failed of string

val phase_string : phase -> string

type t

val create : ?state_dir:string -> every:int -> id:int -> Proto.spec -> t
(** A fresh [Pending] tenant whose log is saved every [every]
    completions to [state_dir/tenant-<name>.ckpt], or kept in memory
    without a state dir. [id] is the scheduler-wide tenant id used on
    the pool wire. *)

val id : t -> int
val name : t -> string
val phase : t -> phase
val weight : t -> int
(** At least 1, whatever the spec says. *)

val resumed : t -> int
(** Representatives replayed from the log at the last activation. *)

val summary : t -> string option
(** The deterministic {!Proto.summary}, once [Finished]. *)

val result : t -> Kit_core.Campaign.t option
val status : t -> Proto.tenant_status

(** {2 Lifecycle} *)

val activate : t -> Pool.t -> unit
(** Prepare and generate the campaign, start it on the driver — which
    replays every logged result — and queue the remaining
    representatives on the pool ({!Pool.jobs}, tenant id {!id}), whose
    completions go to the driver. *)

val finish : t -> Kit_core.Campaign.t
(** Fold the results into the campaign ({!Kit_core.Campaign.finish}),
    render the summary and move to [Finished]. Runs no kernel: the pool
    workers diagnosed each report with its case. Call when
    {!is_drained}. *)

val cancel : t -> unit
(** A pending or active tenant stops taking completions and deletes its
    log file. *)

val fail : t -> string -> unit

val extend : t -> add:int -> unit
(** Grow the corpus by [add] and return to [Pending] for
    re-activation; the log carries over, so unchanged clusters are not
    re-executed. *)

(** {2 Scheduling hooks (called by Sched)} *)

val jobs : t -> Pool.jobs option
(** The tenant's cases on the pool, while [Active]. *)

val claimable : t -> bool
(** Active, with work a slot could start now. *)

val is_drained : t -> bool
(** Active with every representative reported — ready for {!finish}. *)

val deficit : t -> float
val set_deficit : t -> float -> unit

val note_dispatch : t -> contended:bool -> stolen:bool -> unit
(** Count a dispatch: [contended] when another tenant also had
    claimable work at dispatch time (the fairness denominator),
    [stolen] when the dispatch spent another tenant's slack. *)

(** {2 Checkpoints}

    Kind ["serve-tenant-v4"]: a case-result log ({!Kit_core.Caselog})
    whose header is the spec ({!Proto.spec_to_json}), the finished flag,
    the progress {!status} shows (done, total, executions, reports) and
    the summary once finished. Its entries are every completion,
    a twice-lethal quarantine included, so a resumed or extended tenant
    replays the quarantine instead of feeding the case to more
    workers. On load, entries accumulate over the records and the last
    record's spec, flag, progress and summary win; a log written before
    headers carried progress loads with zeros. Files of other kinds
    load as an [Error]. *)

val ckpt_kind : string

val save_checkpoint : t -> unit
(** Save the log now and fsync it, unless the tenant was cancelled.
    The driver's periodic saves between these fsync on a time budget
    ({!Kit_core.Caselog.log}). *)

val of_checkpoint : every:int -> id:int -> string -> (t, string) result
(** Rebuild from a log file, which the tenant goes on saving to:
    finished tenants come back [Finished] with their stored summary,
    unfinished ones [Pending]. A torn final record (a crash mid-append)
    is dropped, and those cases re-execute; see {!torn}. Any other
    damage, an undecodable record or an old kind is an [Error]. *)

val torn : t -> int
(** Bytes of torn tail {!of_checkpoint} dropped; 0 for a fresh tenant
    or a clean file. The first save rewrites the file without them. *)
