(** The supervised execution runtime.

    Real KIT campaigns run for weeks against executors that panic, hang
    and fail to boot; the server/client mode (paper, section 5.2) exists
    precisely so campaigns survive dying workers. The supervisor wraps
    {!Runner} with that robustness: a per-execution fuel deadline,
    VM restart-from-snapshot (and full reboot after infrastructure
    faults), bounded retries with deterministic exponential backoff, and
    a quarantine list for test cases that kill the kernel repeatedly —
    quarantined cases are first-class crash reports, never silent drops.

    Invariant (property-tested): under any transient fault schedule a
    supervised campaign produces byte-identical reports and funnel to
    the fault-free run, as long as the retry budget covers the largest
    transient occurrence count. *)

type config = {
  fuel : int;
  (** per-execution step budget; every syscall costs one unit, a hung
      execution is one that exhausts the budget. [<= 0] disables the
      deadline. *)
  max_retries : int;
  (** re-execution attempts per test case after the first try *)
  max_reboots : int;
  (** VM reboot attempts per test case after infrastructure faults
      (boot failures, snapshot corruption) before giving up *)
  backoff_base_ms : float;
  (** base of the deterministic exponential backoff: retry [n] waits
      [backoff_base_ms * 2^n] virtual milliseconds (recorded, not
      slept — the model's time is virtual) *)
}

val default_config : config
(** fuel 100_000, 8 retries, 8 reboots, 5 ms backoff base. *)

(** Why a quarantined test case kept killing the kernel. *)
type crash_reason =
  | Panicked of Kit_kernel.Fault.panic_info
  | Hung_forever
  | Worker_lost of string
      (** the worker process executing this case died or was killed;
          the string says how (signal, exit code, heartbeat) *)

(** A first-class crash report: the test case, why it died, and how many
    times the supervisor tried. *)
type crash = {
  c_sender : Kit_abi.Program.t;
  c_receiver : Kit_abi.Program.t;
  c_reason : crash_reason;
  c_attempts : int;
}

type stats = {
  mutable attempts : int;       (** execution attempts, including retries *)
  mutable retries : int;
  mutable reboots : int;        (** VM reboots after infrastructure faults *)
  mutable boot_failures : int;  (** failed boot attempts *)
  mutable corruptions : int;    (** corrupted snapshot restores *)
  mutable backoff_ms : float;   (** total simulated backoff delay *)
}

type counters
(** Registry handles for the [stats] mirror, interned once at [create]:
    interning takes a process-wide lock, so per-increment lookups would
    serialise the domains of a parallel campaign on one mutex. *)

type t = {
  cfg : config;
  kconfig : Kit_kernel.Config.t;
  fault : Kit_kernel.Fault.t;
  reruns : int;
  baseline_cache : bool;        (** propagated to every runner incarnation *)
  obs : Kit_obs.Obs.t;          (** observability bundle (shared with runners) *)
  m : counters;
  mutable runner : Runner.t;    (** replaced on VM reboot *)
  mutable prior_executions : int;  (** executions by runners since retired *)
  stats : stats;
  mutable quarantine : crash list; (** newest first *)
  mutable quarantined : int;       (** the length of [quarantine] *)
}

exception Gave_up of string
(** The supervisor exhausted its reboot budget on a permanent
    infrastructure fault — the campaign cannot make progress. *)

val create :
  ?cfg:config -> ?reruns:int -> ?baseline_cache:bool ->
  ?fault:Kit_kernel.Fault.t -> ?obs:Kit_obs.Obs.t -> Kit_kernel.Config.t -> t
(** Boot a supervised environment (retrying transient boot failures).
    [baseline_cache] (default [true]) enables the runner's baseline-trace
    and schedule-search memoization — see {!Runner.create}. [obs] (default
    {!Kit_obs.Obs.nop}) receives ["sup.*"] counters mirroring {!stats},
    per-execution ["sup.execute"] spans and retry/reboot/quarantine
    instants timestamped with the virtual kernel clock.
    @raise Gave_up if the VM never comes up. *)

val execute :
  ?attrs:(string * string) list ->
  t -> sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> Runner.status
(** Execute one test case under supervision. [Completed] after at most
    [max_retries] retries; [Crashed]/[Hung] means the case exceeded the
    retry budget and was quarantined (recorded in [quarantine]).
    [attrs] (default [[]]) are correlation attributes (e.g. [case],
    [cluster], [domain]) stamped on the ["sup.execute"] span and any
    quarantine instant, so trace analysis can join executions back to
    their test cases. The span's Begin and End each read the virtual
    clock, so its deterministic duration is the virtual time the attempt
    loop consumed.
    @raise Gave_up on permanent infrastructure faults. *)

val search_schedules :
  ?attrs:(string * string) list ->
  t -> schedules:int ->
  sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t ->
  Runner.outcome -> Runner.search
(** Supervised {!Runner.search_schedules}: per-schedule task crashes
    are already absorbed (counted as skips) by the runner; a corrupted
    snapshot triggers one VM reboot and retry, and a second corruption
    abandons the search as skipped — schedule search is opportunistic
    extra coverage and never fails the case. Emits a
    ["sup.sched_search"] span. No-op returning {!Runner.empty_search}
    when [schedules <= 1]. *)

val test_interference :
  t -> sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> int list
(** Supervised TestFuncI (Algorithm 2 re-testing): like
    [Runner.test_interference] but crash/hang-safe. A modified sender
    that permanently kills the kernel yields [[]] — the diagnosis loop
    treats it as non-interfering rather than dying with the VM. *)

val executions : t -> int
(** Program executions across all runner incarnations. *)

val quarantine_count : t -> int
(** How many crash reports are quarantined, O(1) — for per-case delta
    accounting in campaign chunks. *)

val quarantined_since : t -> int -> crash list
(** [quarantined_since t n] is every crash report quarantined after the
    first [n], oldest first — the delta between two
    {!quarantine_count} readings, in time and allocation linear in the
    delta alone; all of them from [0]. *)

val absorb : t -> stats -> Kit_kernel.Fault.counters -> unit
(** [absorb t stats counters] adds another supervisor's [stats] and
    fault counters into [t]'s records, as a campaign does with the
    supervisors of its domains. The registry is left alone: the other
    supervisor's bundle is folded in with {!Kit_obs.Metrics.absorb}. *)

val pp_crash : Format.formatter -> crash -> unit
val pp_stats : Format.formatter -> stats -> unit
