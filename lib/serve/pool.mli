(** The crash-isolated process pool: the paper's server/client mode
    (§5.2) with real Unix processes.

    The pool is split in three layers. The {e core} ({!create} /
    {!poll} / {!retire} / {!shutdown}) is persistent and
    tenant-agnostic: it spawns [procs] worker processes — re-executions
    of the current binary (OCaml 5 forbids [Unix.fork] in any process
    that has ever spawned a domain), bootstrapped over the job pipe and
    entered through {!worker_entry} — keeps one supervised execution
    environment per campaign context inside each worker, detects worker
    death via [waitpid] (exit code or signal) and pipe EOF, detects
    hangs via a wall-clock heartbeat deadline on each worker's oldest
    case (an expired worker is [SIGKILL]ed), respawns crashed workers
    with bounded retries and exponential backoff (re-sending every
    context), and reports everything as {!event}s.

    A worker holds up to 16 cases at once, its {e flight}, so the pool
    pays per batch rather than per case: {!poll} writes a worker's
    queued [Job] frames in one write and decodes every [Done] frame one
    read brings in. The worker runs its flight in order and reports
    each case as it completes, so a death is still blamed on exactly
    the case that was running. The depth is a constant, not an option.

    The {e job policy} ({!jobs}) is the one home of the rules both
    drivers share: receiver-group dealing, claim-or-steal, report-once,
    the two-strike [Worker_lost] quarantine and reshard-on-death, over
    a {!Kit_core.Jobqueue}. Its drivers are {!executor}, the
    single-campaign executor behind [kit campaign --procs], and the
    multi-tenant scheduler ([Kit_serve.Sched] behind [kit serve]).
    Checkpointing is the campaign driver's ({!Kit_core.Campaign}), the
    same for every executor.

    Per-case results are schedule-independent, so the merged
    funnel/report/quarantine fingerprint equals the sequential
    {!Kit_core.Campaign.run} for any procs count and any kill schedule
    (property-tested). *)

module Campaign := Kit_core.Campaign

val worker_entry : unit -> unit
(** The worker trampoline. Every executable that runs {!executor} (or
    creates a pool) MUST call this first thing in [main], before
    argument parsing: when the process was spawned as a pool worker
    (the [KIT_POOL_WORKER] environment variable is set), it runs the
    worker loop over the inherited pipe descriptors the variable names
    and never returns ([Unix._exit]); otherwise it is a no-op. *)

(** Deliberate worker misbehaviour, for tests. Sabotage acts inside the
    worker — the parent only ever sees its observable effects (death,
    silence). *)
type sabotage = {
  kill_after : (int * int) list;
      (** [(slot, n)]: worker [slot] SIGKILLs itself as it starts its
          next case once it has completed [n] — from the parent's
          view, death mid-case. One-shot: the slot's respawned worker is
          not re-sabotaged. *)
  hang_after : (int * int) list;
      (** [(slot, n)]: as [kill_after], but the worker sleeps forever —
          only the heartbeat can catch it. One-shot per slot. *)
  poison : int list;
      (** job ids that SIGKILL {e any} worker as it starts them — the
          twice-lethal quarantine path *)
}

type config = {
  procs : int;                       (** worker processes (at least 1) *)
  heartbeat_s : float;
      (** wall-clock deadline on a worker's oldest case, counted from
          when its frame was written or the case before it was read as
          done, whichever is later; an overdue worker is killed *)
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
          (** [(tenant, id)] of the oldest case the worker had not
              reported: the one it was running. Buffered [Done] frames
              are decoded first, so a case the worker finished before
              dying is never blamed; the cases behind it in its flight
              go back to the queue without a strike ({!handle}). *)
      ev_respawned : bool;
          (** the slot was respawned (budget remained) and is idle *)
    }

val create : ?obs:Kit_obs.Obs.t -> config -> t
(** Spawn the workers (SIGPIPE is ignored for the pool's lifetime —
    restored by {!shutdown}). [obs] receives [pool.*] counters and
    per-worker spans (default: a private bundle). *)

val retire : t -> tenant:int -> unit
(** Drop a tenant's context (and its workers' environments). Cases of
    the tenant already in flight still run and produce
    {!event.Job_done}. *)

val idle_slots : t -> int list
(** Alive workers with room in their flight (fewer than 16 cases
    dispatched and unreported), in slot order. *)

val live_count : t -> int

val poll : ?extra:Unix.file_descr list -> t -> timeout:float ->
  event list * Unix.file_descr list
(** One event-loop turn: write every worker's queued frames, read the
    results already waiting from overdue workers, heartbeat-kill those
    still overdue, reap exits, select on worker result pipes plus
    [extra] descriptors (capped at [timeout] seconds, shortened to the
    earliest heartbeat deadline), and return the events in arrival
    order plus whichever [extra] descriptors are readable. Buffered
    events make the select non-blocking. A result frame that cannot be
    decoded (a negative or oversized length, or bad payload bytes)
    counts as the worker's death. *)

val shutdown : t -> unit
(** Quit, reap and close every live worker; restore SIGPIPE. *)

type core_stats = {
  c_spawns : int;
  c_deaths : int;
  c_respawns : int;
  c_heartbeat_timeouts : int;
}

val core_stats : t -> core_stats

(** {2 The job policy} *)

type jobs
(** One campaign's cases on the pool. *)

val jobs :
  t -> tenant:int -> label:string -> Campaign.options ->
  Kit_abi.Program.t array -> (int * Kit_gen.Testcase.t) list ->
  on_done:(int -> Campaign.case_result -> int -> unit) -> jobs
(** Install the campaign's context under [tenant] in every worker
    ([label] is stamped as a ["tenant"] trace attr on its executions
    when non-empty) and queue [(case, representative)] pairs, dealt
    over the live slots by receiver ({!Kit_core.Campaign.deal} keyed
    by the corpus index): each receiver's cases go whole, largest group
    first, to the least-loaded slot, so its baseline and mask are
    computed on one worker. [on_done case result executions] fires
    once per case, for its first completion or for its quarantine (0
    executions) after it killed two workers in a row. *)

val claimable : jobs -> bool
(** Cases dealt to a slot and not yet dispatched. *)

val drained : jobs -> bool

val dispatch : t -> jobs -> slot:int -> bool
(** Queue one case on a slot with room in its flight: its own next
    case, or else the first of a whole receiver group stolen from the
    longest queue, whose other cases become the slot's own. [false]
    when the slot is full or there is no case. The frame goes out at
    the next {!poll}. Drivers call it until it fails, for every slot of
    {!idle_slots}. *)

val handle : t -> jobs -> event -> unit
(** Apply one {!poll} event: a completion of one of these cases, or a
    worker death — a strike on the oldest case it had not reported, and
    its whole queue, flight included, resharded over the survivors by
    receiver. *)

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

val executor :
  ?obs:Kit_obs.Obs.t -> ?on_stats:(stats -> unit) -> config ->
  Campaign.executor
(** The campaign executor for {!Kit_core.Campaign.drive} behind
    [kit campaign --procs N]: every [(case, representative)] runs on a
    fresh pool (the executor's supervisor argument is not used), and
    [on_done case result executions] is called exactly once per case as
    its completion (or its twice-lethal quarantine, with 0 executions)
    arrives. [case] is the job id on the wire: the ["case"] trace attr
    and the key of [sabotage.poison]. [on_stats] receives the pool
    statistics when the pool drains, so callers that only see the
    assembled campaign (the CLI) can still report spawns, deaths and
    reshards.
    @raise Aborted when no worker can absorb the remaining queue. *)
