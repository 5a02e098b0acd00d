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
    claim order, strikes, quarantine, resharding, checkpointing — lives
    in the drivers: {!execute}, the single-campaign driver behind
    [kit campaign --procs], and the multi-tenant
    scheduler ([Kit_serve.Sched] behind [kit serve]), both feeding the
    pool from {!Kit_core.Jobqueue}s.

    {!execute} preserves the full single-campaign contract: a dead
    worker's unfinished queue is resharded over the survivors, a case
    that kills two workers in a row is quarantined as a first-class
    [Worker_lost] crash report instead of looping respawns, completed
    shards checkpoint to an append-only KITCKPT1 log (each save appends
    only the cases completed or quarantined since the previous one) so
    a killed parent resumes without re-executing finished work, and
    {!Aborted} is raised when every worker is gone.

    Per-case results are schedule-independent, so the merged
    funnel/report/quarantine fingerprint equals the sequential
    {!Kit_core.Campaign.run} for any procs count and any kill schedule
    (property-tested). *)

module Campaign := Kit_core.Campaign

val worker_entry : unit -> unit
(** The worker trampoline. Every executable that calls {!execute} (or
    installs {!executor}) MUST call this first thing in [main], before
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
  checkpoint_path : string option;
      (** {!execute} only: checkpoint completed shards here *)
  checkpoint_every : int;            (** completions between checkpoints *)
  sabotage : sabotage;
}

val default_config : config
(** 4 procs, 30 s heartbeat, 3 respawns, 5 ms backoff, no checkpointing,
    no sabotage. *)

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

(** {2 The single-campaign driver} *)

type stats = {
  spawns : int;                      (** worker processes ever forked *)
  deaths : int;                      (** exits, signals and hang kills *)
  respawns : int;
  resharded : int;                   (** cases redealt from dead workers *)
  heartbeat_timeouts : int;
  poisoned : int;                    (** cases quarantined as twice-lethal *)
  resumed : int;                     (** cases restored from checkpoint *)
  stolen : int;                      (** cases work-stolen by idle workers *)
}

type outcome = {
  results : Campaign.case_result list;
      (** one per cluster representative, in representative order;
          pool-quarantined cases appear as [Worker_lost] crash results *)
  executions : int;                  (** summed over workers and resumes *)
  stats : stats;
}

exception
  Aborted of {
    unfinished : (int * Kit_gen.Testcase.t) list;
        (** the queue nobody could absorb, in case order *)
    stats : stats;
  }
(** Every worker slot is dead with its respawn budget spent and work
    still queued. If a checkpoint path is configured the completed
    shards were saved before raising, so a fresh pool resumes. *)

val execute :
  ?obs:Kit_obs.Obs.t ->
  ?resume:bool ->
  config ->
  Campaign.options ->
  Kit_abi.Program.t array ->
  Kit_gen.Cluster.result ->
  outcome
(** Run every cluster representative of [generation] on a fresh pool.
    [resume] (default [false]) preloads completed shards from
    [config.checkpoint_path] first — ignored when the file is missing;
    a torn final record (a kill mid-append) is dropped and its cases
    re-execute; a corrupt file aborts with the typed checkpoint error
    message.
    @raise Aborted when no worker can absorb the remaining queue. *)

val executor :
  ?obs:Kit_obs.Obs.t -> ?resume:bool -> ?on_stats:(stats -> unit) ->
  config -> Campaign.executor
(** Package {!execute} as a campaign execute-phase driver for
    {!Kit_core.Campaign.run_with_executor} — the engine behind
    [kit campaign --procs N]. [on_stats] receives the pool statistics
    when the execute phase completes, so callers that only see the
    assembled campaign (the CLI) can still report spawns, deaths,
    reshards and — critically for resumed runs — the restored-shard
    count. *)
