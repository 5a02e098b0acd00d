(** The crash-isolated process pool: the paper's server/client mode
    (§5.2) with real Unix processes.

    The pool is split in two layers. The {e core} ({!create} /
    {!register} / {!dispatch_job} / {!poll} / {!shutdown}) is persistent
    and tenant-agnostic: it spawns [procs] worker processes —
    re-executions of the current binary (OCaml 5 forbids [Unix.fork] in
    any process that has ever spawned a domain), bootstrapped over the
    job pipe and entered through {!worker_entry} — keeps one supervised
    execution environment per registered campaign context inside each
    worker, detects worker death via [waitpid] (exit code or signal) and
    pipe EOF, detects hangs via per-job wall-clock heartbeat deadlines
    (an expired worker is [SIGKILL]ed), respawns crashed workers with
    bounded retries and exponential backoff (re-sending every registered
    context), and reports everything as {!event}s. Scheduling policy —
    claim order, strikes, quarantine, resharding — lives in the
    drivers: {!execute}, the single-campaign executor behind
    [kit campaign --procs], and the multi-tenant
    scheduler ([Kit_serve.Sched] behind [kit serve]), both feeding the
    pool from {!Kit_core.Jobqueue}s.

    {!execute} only executes: a dead worker's unfinished queue is
    resharded over the survivors, a case that kills two workers in a
    row is quarantined as a first-class [Worker_lost] crash report
    instead of looping respawns, every completion or quarantine is
    reported as it arrives, and {!Aborted} is raised when every worker
    is gone. Checkpointing is the campaign driver's
    ({!Kit_core.Campaign.execute}), the same for every executor.

    Per-case results are schedule-independent, so the merged
    funnel/report/quarantine fingerprint equals the sequential
    {!Kit_core.Campaign.run} for any procs count and any kill schedule
    (property-tested). *)

module Campaign := Kit_core.Campaign

val worker_entry : unit -> unit
(** The worker trampoline. Every executable that calls {!execute} (or
    runs {!executor}) MUST call this first thing in [main], before
    argument parsing: when the process was spawned as a pool worker
    (the [KIT_POOL_WORKER] environment variable is set), it runs the
    worker loop over the inherited pipe descriptors the variable names
    and never returns ([Unix._exit]); otherwise it is a no-op. *)

(** Deliberate worker misbehaviour, for tests. Sabotage acts inside the
    worker — the parent only ever sees its observable effects (death,
    silence). *)
type sabotage = {
  kill_after : (int * int) list;
      (** [(slot, n)]: worker [slot] SIGKILLs itself on receiving its
          next job once it has completed [n] cases — from the parent's
          view, death mid-case. One-shot: the slot's respawned worker is
          not re-sabotaged. *)
  hang_after : (int * int) list;
      (** [(slot, n)]: as [kill_after], but the worker sleeps forever —
          only the heartbeat can catch it. One-shot per slot. *)
  poison : int list;
      (** job ids whose receipt SIGKILLs {e any} worker — the
          twice-lethal quarantine path *)
}

val no_sabotage : sabotage

type config = {
  procs : int;                       (** worker processes (at least 1) *)
  heartbeat_s : float;
      (** per-job wall-clock deadline; an overdue worker is killed *)
  max_respawns : int;                (** respawn budget per worker slot *)
  backoff_base_ms : float;           (** respawn backoff base, doubling *)
  sabotage : sabotage;
}

val default_config : config
(** 4 procs, 30 s heartbeat, 3 respawns, 5 ms backoff, no sabotage. *)

(** {2 The persistent pool core} *)

type t
(** A live pool of worker processes. Single-threaded: all calls from
    the owning (scheduler) process. *)

(** What the pool observed since the last {!poll}. *)
type event =
  | Job_done of {
      ev_slot : int;
      ev_tenant : int;
      ev_id : int;
      ev_result : Campaign.case_result;
      ev_execs : int;                (** supervisor executions delta *)
    }
  | Worker_lost of {
      ev_slot : int;
      ev_why : string;
      ev_in_flight : (int * int) option;
          (** [(tenant, id)] that died with the worker — buffered [Done]
              frames are drained first, so a case the worker finished
              before dying is never blamed *)
      ev_respawned : bool;
          (** the slot was respawned (budget remained) and is idle *)
    }

val create : ?obs:Kit_obs.Obs.t -> config -> t
(** Spawn the workers (SIGPIPE is ignored for the pool's lifetime —
    restored by {!shutdown}). [obs] receives [pool.*] counters and
    per-worker spans (default: a private bundle). *)

val register :
  t -> tenant:int -> label:string -> Campaign.options ->
  Kit_abi.Program.t array -> unit
(** Install (or replace) a campaign context under [tenant] in every
    worker: each boots a supervised environment for it. Respawned
    workers automatically receive every registered context. [label] is
    stamped as a ["tenant"] trace attr on the worker's executions when
    non-empty. *)

val retire : t -> tenant:int -> unit
(** Drop a tenant's context (and its workers' environments). In-flight
    jobs of the tenant still produce {!event.Job_done}. *)

val idle_slots : t -> int list
(** Alive workers with no job in flight, in slot order. *)

val alive_slots : t -> int list

val live_count : t -> int

val in_flight : t -> (int * (int * int)) list
(** [(slot, (tenant, id))] for every job currently on a worker. *)

val dispatch_job : t -> slot:int -> tenant:int -> id:int ->
  Kit_gen.Testcase.t -> unit
(** Send one job to an idle worker and start its heartbeat deadline.
    @raise Invalid_argument if the slot is dead or busy. *)

val poll : ?extra:Unix.file_descr list -> t -> timeout:float ->
  event list * Unix.file_descr list
(** One event-loop turn: heartbeat-kill overdue workers, reap exits,
    select on worker result pipes plus [extra] descriptors (capped at
    [timeout] seconds, shortened to the earliest heartbeat deadline),
    and return the events in arrival order plus whichever [extra]
    descriptors are readable. Buffered events make the select
    non-blocking. *)

val shutdown : t -> unit
(** Quit, reap and close every live worker; restore SIGPIPE. *)

type core_stats = {
  c_spawns : int;
  c_deaths : int;
  c_respawns : int;
  c_heartbeat_timeouts : int;
}

val core_stats : t -> core_stats

(** {2 The single-campaign executor} *)

type stats = {
  spawns : int;                      (** worker processes ever forked *)
  deaths : int;                      (** exits, signals and hang kills *)
  respawns : int;
  resharded : int;                   (** cases redealt from dead workers *)
  heartbeat_timeouts : int;
  poisoned : int;                    (** cases quarantined as twice-lethal *)
  stolen : int;                      (** cases work-stolen by idle workers *)
}

exception
  Aborted of {
    unfinished : (int * Kit_gen.Testcase.t) list;
        (** the cases nobody could absorb, in case order *)
    stats : stats;
  }
(** Every worker slot is dead with its respawn budget spent and work
    still queued. Every case reported before the abort stays reported:
    the campaign driver saves its log before the exception reaches the
    caller, so a rerun with the log resumes. *)

val execute :
  ?obs:Kit_obs.Obs.t ->
  config ->
  Campaign.options ->
  Kit_abi.Program.t array ->
  (int * Kit_gen.Testcase.t) list ->
  on_done:(int -> Campaign.case_result -> int -> unit) ->
  stats
(** Run every [(case, representative)] on a fresh pool, calling
    [on_done case result executions] exactly once per case as its
    completion (or its twice-lethal quarantine, with 0 executions)
    arrives. [case] is the job id on the wire: the ["case"] trace attr
    and the key of [sabotage.poison].
    @raise Aborted when no worker can absorb the remaining queue. *)

val executor :
  ?obs:Kit_obs.Obs.t -> ?on_stats:(stats -> unit) -> config ->
  Campaign.executor
(** {!execute} as a campaign executor for {!Kit_core.Campaign.execute}
    — the engine behind [kit campaign --procs N]. It returns the summed
    worker executions. [on_stats] receives the pool statistics when the
    pool drains, so callers that only see the assembled campaign (the
    CLI) can still report spawns, deaths and reshards. *)
