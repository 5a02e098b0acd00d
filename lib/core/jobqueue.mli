(** The generic campaign job queue: submit / claim / complete / reassign
    with a deterministic merge order.

    One queue abstraction backs the process pool's one job policy
    ([Kit_serve.Pool.jobs]), which both the single-campaign pool
    executor and the multi-tenant scheduler drive. Jobs carry
    a stable integer id — either allocated in submit order ({!submit})
    or caller-chosen ({!submit_as}, e.g. global case indices). The
    list reads ({!unfinished}, {!release}) walk jobs in submit order.
    Merged outcomes do not depend on that order: the campaign driver
    ([Campaign.complete]) folds results in case order, whatever order
    they complete in.

    Assignment is two-level, mirroring the paper's server mode: a job is
    {e assigned} to a worker's queue (sharding, resharding after a
    death) and then {e claimed} when the worker actually starts it. {!release} returns a dead worker's whole unfinished queue —
    assigned and in-flight — for resharding over the survivors.

    A queue created with a [group] key steals whole groups: the pool
    groups cases by receiver, so a thief takes every case of one
    receiver that the victim holds, and its runner caches stay warm.

    Costs below are for a queue of [n] jobs over [w] distinct worker
    ids. The queue keeps every job in a map keyed by submit order, each
    worker's assigned-but-unclaimed jobs in a second ordered map, and
    running counts of live and of assigned jobs, so the operations a
    driver calls once per dispatch or per event never walk the whole
    table. *)

type ('a, 'b) t
(** A queue of jobs with payload ['a] and result ['b]. Not
    domain-safe: drivers mutate it from the coordinating
    domain/process only. *)

val create : ?group:('a -> int) -> unit -> ('a, 'b) t
(** A queue whose jobs fall in groups by [group payload]; without
    [group] each job is a group of its own. *)

(** {2 Submission} *)

val submit : ('a, 'b) t -> 'a -> int
(** Enqueue a job; returns its id (consecutive from 0 in submit
    order when ids are never chosen explicitly). O(log n). *)

val submit_as : ('a, 'b) t -> id:int -> 'a -> unit
(** Enqueue under a caller-chosen id (e.g. a global case index).
    O(log n).
    @raise Invalid_argument if the id was already submitted. *)

val mem : ('a, 'b) t -> int -> bool
val payload : ('a, 'b) t -> int -> 'a
(** @raise Not_found if the id was never submitted. O(1), like {!mem}. *)

(** {2 Assignment and claiming} *)

val assign_round_robin : ('a, 'b) t -> workers:int -> (int * 'a) list array
(** Deal every queued job round-robin over [workers] queues by submit
    order — the paper's RPC sharding. Returns the per-worker queues
    ([(id, payload)], submit order); jobs already assigned, running or
    finished are untouched. O(n log n). *)

exception No_survivors
(** {!deal} was given an empty [to_] list: there is nobody left to
    absorb the orphaned jobs. Drivers catch it to abort (the pool) or to
    fail just the owning tenant (the scheduler) instead of dying on a
    generic [Invalid_argument]. *)

val deal : ('a, 'b) t -> (int * 'a) list -> to_:int list -> unit
(** [deal t jobs ~to_:survivors] assigns [jobs] (a new shard, or a
    dead worker's {!release}d queue) round-robin over the [survivors]
    in list order: job [k] goes to [List.nth survivors (k mod n)]. The
    pool deals each worker its receiver groups with one [survivor].
    O(log n) per job.
    @raise No_survivors when [survivors] is empty. *)

val claim_next : ('a, 'b) t -> worker:int -> (int * 'a) option
(** The worker's next assigned-but-unclaimed job, in submit order;
    marks it running. [None] if its queue is empty. O(log n). *)

val steal : ('a, 'b) t -> thief:int -> (int * 'a) option
(** Work stealing for an idle worker: find the {e last} assigned
    (unclaimed) job of the worker with the longest queue (lowest worker
    id on ties), move every job of its group that the victim holds to
    [thief]'s queue, and mark the first of them (in submit order)
    running on [thief]. [None] when nothing is stealable.
    O(w + log n) ungrouped; a grouped steal adds one pass over the
    victim's queue. *)

val release : ('a, 'b) t -> worker:int -> (int * 'a) list
(** A worker died: return its whole unfinished queue — assigned and
    running jobs, in submit order — to the queued state and count the
    jobs as resharded. O(n), plus O(log n) per released job. *)

(** {2 Completion} *)

val complete : ('a, 'b) t -> int -> 'b -> unit
(** Record a job's result. Permitted from any state (queued, assigned,
    running or completed — drivers that execute whole shards complete
    jobs post-hoc). O(log n).
    @raise Not_found on an unknown id. *)

(** {2 Reads} *)

val result : ('a, 'b) t -> int -> 'b option
(** O(1). *)

val unfinished : ('a, 'b) t -> (int * 'a) list
(** Jobs not yet completed, in submit order. O(n). *)

val assigned_count : ('a, 'b) t -> int
(** Jobs assigned to a worker and not yet claimed, over every worker:
    what {!claim_next} and {!steal} can still hand out. O(1). *)

val is_drained : ('a, 'b) t -> bool
(** No queued, assigned or running jobs remain. O(1). *)

val resharded : ('a, 'b) t -> int
(** Total jobs ever {!release}d from dead workers. *)

val stolen : ('a, 'b) t -> int
(** Total jobs ever moved by {!steal}. *)
