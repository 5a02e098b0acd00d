(** One tenant of the [kit serve] scheduler: a submitted campaign's
    lifecycle, job queue, fingerprint-keyed result cache and KITCKPT1
    checkpoint.

    Split of responsibilities: the tenant owns the campaign-shaped state
    (prepared corpus, generated clusters, one job per cluster
    representative, per-representative results), the {!Sched} owns the
    pool-shaped state (worker slots, deficits, dispatch order). Per-case
    results are schedule-independent, so a tenant finished under any
    interleaving assembles the same campaign a solo [kit campaign] run
    produces — the cross-check behind the serve CI gate.

    The result cache is keyed by testcase fingerprint
    ({!Kit_gen.Testcase.fingerprint}). Corpus generation is
    prefix-stable, so both daemon resume and {!extend} replay unchanged
    representatives from cache instead of re-executing them. *)

type phase =
  | Pending      (** admitted, waiting for an activation slot *)
  | Active       (** clusters generated, representatives executing *)
  | Finished     (** assembled; {!summary} and {!result} available *)
  | Cancelled
  | Failed of string

val phase_string : phase -> string

type t

val create : id:int -> Proto.spec -> t
(** A fresh [Pending] tenant. [id] is the scheduler-wide tenant id used
    on the pool wire. *)

val id : t -> int
val name : t -> string
val spec : t -> Proto.spec
val phase : t -> phase
val weight : t -> int
(** At least 1, whatever the spec says. *)

val total : t -> int
(** Representative count; 0 until active. *)

val completed : t -> int
val inflight : t -> int

val resumed : t -> int
(** Representatives replayed from cache at the last activation. *)

val summary : t -> string option
(** The deterministic {!Proto.summary}, once [Finished]. *)

val result : t -> Kit_core.Campaign.t option
val status : t -> Proto.tenant_status

(** {2 Lifecycle} *)

val activate : t -> procs:int -> Kit_core.Campaign.options *
  Kit_abi.Program.t array
(** Prepare + generate the campaign, fill the job queue (job id =
    representative index, sharded round-robin over [procs]), replay
    every cached result as an already-completed job, and return the
    (options, corpus) context for {!Pool.register}. *)

val finish : t -> Kit_core.Campaign.t
(** Fold results in representative order through
    [Campaign.assemble] — diagnosis and aggregation included — and move
    to [Finished]. Call when {!is_drained}. *)

val cancel : t -> unit
val fail : t -> string -> unit

val extend : t -> add:int -> unit
(** Grow the corpus by [add] and return to [Pending] for
    re-activation; the result cache carries over, so unchanged clusters
    are not re-executed. *)

(** {2 Scheduling hooks (called by Sched)} *)

val claimable : t -> bool
(** The tenant is active and has work a slot could start now. *)

val under_inflight_cap : t -> bool

val claim : t -> slot:int -> (int * Kit_gen.Testcase.t) option
(** The slot's next job from this tenant's queue — its own shard first,
    then an intra-tenant steal from the longest shard. *)

val record_done : t -> id:int -> Kit_core.Campaign.case_result -> int -> unit
(** A worker finished job [id] with the given result and execution
    count: complete it, cache it under the testcase fingerprint, drop
    its strike record. Duplicate deliveries are ignored. *)

val struck : t -> id:int -> why:string -> bool
(** A worker died holding job [id]. Returns [true] when this was the
    second strike and the representative was quarantined as a
    [Worker_lost] crash report (it must not be re-dealt). *)

val release : t -> slot:int -> (int * Kit_gen.Testcase.t) list
(** The dead slot's unfinished queue, for re-dealing. *)

val redeal : t -> (int * Kit_gen.Testcase.t) list -> to_:int list -> unit
(** @raise Kit_core.Jobqueue.No_survivors when [to_] is empty. *)

val is_drained : t -> bool
(** Active with every representative completed or quarantined — ready
    for {!finish}. *)

(** {2 Scheduler-owned counters}

    Deficit-round-robin state lives on the tenant record but is
    read/written only by {!Sched}. *)

val steals : t -> int
val deficit : t -> float
val set_deficit : t -> float -> unit

val note_dispatch : t -> contended:bool -> stolen:bool -> unit
(** Count a dispatch: [contended] when another tenant also had
    claimable work at dispatch time (the fairness denominator),
    [stolen] when the dispatch spent another tenant's slack. *)

(** {2 Checkpoints}

    Kind ["serve-tenant-v4"]: a case-result log
    ({!Kit_core.Caselog}) whose header is the spec
    ({!Proto.spec_to_json}), the finished flag and the summary once
    finished; its entries are the cache — fingerprint, execution count
    and case result. The first save of each incarnation (fresh, or
    loaded from a checkpoint) writes the whole cache atomically; every
    later save appends one record with only the entries completed since
    the previous save, so a save costs O(new completions) and one
    fsync. On load, entries accumulate over the records and the last
    record's spec, flag and summary win. A resumed daemon rebuilds the
    tenant from this file; re-activation replays the cache, so
    checkpointed representatives are never re-executed. Files of other
    kinds load as an [Error]. *)

val cached : t -> string list
(** The fingerprints in the result cache, sorted. *)

val ckpt_kind : string

val ckpt_path : string -> t -> string
(** [ckpt_path state_dir t] — [state_dir/tenant-<name>.ckpt]. *)

val checkpoint_due : t -> every:int -> bool
(** [every] or more completions since the last checkpoint. *)

val save_checkpoint : string -> t -> unit
(** [save_checkpoint state_dir t]: the whole cache on the first save of
    this incarnation to [ckpt_path state_dir t], one appended record
    of the new completions after that. Ends with an fsync either way. *)

val of_checkpoint : id:int -> string -> (t, string) result
(** Rebuild from a checkpoint file: finished tenants come back
    [Finished] with their stored summary, unfinished ones [Pending]
    with the cache primed. A torn final record (a crash mid-append) is
    dropped, and those cases re-execute; see {!torn}. Any other damage,
    an undecodable record or an old kind is an [Error]. *)

val torn : t -> int
(** Bytes of torn tail {!of_checkpoint} dropped; 0 for a fresh tenant
    or a clean file. The next save rewrites the file without them. *)
