(** The deterministic fault-injection plane.

    Real KIT drives sender/receiver programs inside QEMU-KVM executors
    that routinely panic or hang when a generated program crashes the
    kernel; the server/client mode (paper, section 5.2) exists so
    campaigns survive dying workers. The model kernel cannot crash by
    accident, so this plane makes it crash *on purpose*: a schedule —
    derived deterministically from the campaign seed — arms panics on
    chosen syscalls, hangs (fuel exhaustion), VM boot failures and
    snapshot-restore corruption. Each armed fault is either transient
    (fires for its first [k] occurrences, then wears off — the flaky
    infrastructure case) or permanent (fires on every occurrence — the
    genuinely crashing test case). Supervised execution (see
    {!Kit_exec}) recovers from transient faults and quarantines
    permanent crashers. *)

type persistence =
  | Transient of int  (** fires for the first [k] occurrences, then wears off *)
  | Permanent         (** fires on every occurrence *)

type fault =
  | Panic_on of Kit_abi.Sysno.t  (** kernel panic when this syscall runs *)
  | Hang_on of Kit_abi.Sysno.t   (** burn all remaining fuel at this syscall *)
  | Boot_failure                 (** {!State.boot} fails *)
  | Snapshot_corruption          (** snapshot restore fails its integrity check *)

type arming = { fault : fault; persistence : persistence }

type schedule = arming list

type panic_info = {
  panic_sysno : Kit_abi.Sysno.t;  (** syscall executing when the kernel died *)
  occurrence : int;               (** how many times this fault had fired *)
  message : string;
}

exception Kernel_panic of panic_info
exception Fuel_exhausted
exception Boot_failed
exception Snapshot_corrupt

type t
(** A fault plane instance. One plane is owned by each booted kernel's
    environment and survives VM reboots (the schedule belongs to the
    *campaign*, not to one kernel instance). *)

val none : unit -> t
(** An inert plane: never fires, no fuel accounting. *)

val of_schedule : schedule -> t

val schedule : t -> schedule
(** The remaining schedule: armed faults with their current residual
    persistence (transient counts decrease as occurrences fire). *)

(* -- deterministic schedule generation ---------------------------------- *)

val schedule_of_seed : seed:int -> intensity:int -> schedule
(** [intensity] transient faults drawn deterministically from [seed]:
    panics and hangs on corpus-exercised syscalls, boot failures and
    snapshot corruptions, with occurrence counts in 1..3. Never emits
    permanent faults, so a supervisor with enough retries always
    recovers. Boot-failure counts are capped at 8 in total — the
    supervisor's default [max_reboots] — because a boot that keeps
    failing past the reboot budget gives up: the draw that would cross
    the cap is clamped, and a boot draw after it is dropped, so the
    schedule can hold fewer than [intensity] armings. *)

(* -- textual schedule format (CLI) -------------------------------------- *)

val parse_schedule : string -> (schedule, string) result
(** Comma-separated armings: [panic:SYSNO[:K]], [hang:SYSNO[:K]],
    [boot[:K]], [snap[:K]] where [K] is an occurrence count (default 1)
    or [perm] for permanent. E.g. ["panic:socket:2,boot,snap:perm"]. *)

val schedule_to_string : schedule -> string
(** Inverse of {!parse_schedule} (round-trips). *)

(* -- fuel --------------------------------------------------------------- *)

val set_fuel_limit : t -> int option -> unit
(** Per-execution step budget; [None] (the default) disables the
    deadline. Armed by the supervisor, re-armed at every {!begin_execution}. *)

val begin_execution : t -> unit
(** Start a new execution attempt: refill the fuel tank and zero
    {!steps}. Called by [Env.reset], i.e. once per snapshot reload. *)

val steps : t -> int
(** Syscalls this execution has made or been {!charge}d for, with or
    without a fuel limit: read after a run, what replaying it costs. *)

val charge : t -> int -> bool
(** [charge t n] consumes the fuel of [n] syscalls, as running them
    would, when the tank holds it, and adds [n] to {!steps}. [false]
    (nothing consumed) when it does not: the caller must then run the
    syscalls, so that the one the tank cannot pay for raises
    [Fuel_exhausted] where it always did. *)

(* -- hooks wired into the model kernel ---------------------------------- *)

val on_syscall : t -> Kit_abi.Sysno.t -> unit
(** Consume one unit of fuel and fire any armed panic/hang for this
    syscall. @raise Kernel_panic, @raise Fuel_exhausted. *)

val on_boot : t -> unit
(** @raise Boot_failed if a boot failure is armed. *)

val on_restore : t -> unit
(** @raise Snapshot_corrupt if snapshot corruption is armed. *)

(* -- observability ------------------------------------------------------ *)

type counters = {
  panics : int;               (** panics fired *)
  hangs : int;                (** hang faults fired *)
  fuel_exhaustions : int;     (** deadlines exceeded (incl. hang faults) *)
  boot_failures : int;
  snapshot_corruptions : int;
  executions : int;           (** execution attempts started *)
}

val counters : t -> counters

val absorb : t -> counters -> unit
(** [absorb t c] adds counters counted on another fault plane into
    [t]'s. No armed fault changes. *)

val pp_panic_info : Format.formatter -> panic_info -> unit
val pp_counters : Format.formatter -> counters -> unit
