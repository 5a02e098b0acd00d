(** Test case execution and non-determinism identification (paper,
    sections 4.2 and 4.3.2), in three modes.

    Sequential: execution A runs the sender in the sender container and
    then the receiver in the receiver container; execution B reloads
    the snapshot and runs the receiver alone. The receiver is
    additionally re-run with shifted clock bases; result nodes that
    vary get their det flag cleared before comparison.

    Interleaved ({!run_interleaved}): execution A runs sender and
    receiver as two cooperatively scheduled tasks under [Kernel.Sched];
    the schedule is a pure function of a seed, and the sequential
    schedule matches {!run_pair} byte-for-byte.

    Schedule search ({!search_schedules}): enumerate seeds, prune
    equivalent ones by partial-order reduction over the programs' solo
    access sequences, execute one representative per class and report
    the divergences no sequential order exposes.

    Four size-capped LRU memo caches cut the execution count, each
    keyed by the programs themselves and bucketed by [Program.hash]
    (30 bits, which collides across large corpora), so a hit needs
    equal programs, never an equal hash alone. The non-determinism
    mask cache and the baseline cache are keyed on the receiver
    (execution B and the mask's reference run depend only on the
    receiver, so test cases sharing a receiver share the solo trace);
    the solo access-sequence cache on (container pid, program), since
    namespace ids differ per container; the search memo on (sender,
    receiver, schedule count), since with no fault armed a schedule
    search is a pure function of the pair. Solo artifacts are
    schedule-independent — a solo run has one task — so only the search
    memo is keyed by schedule. The baseline cache and the search memo
    are bypassed when [baseline_cache] is off and while the fault plane
    has armed faults, the access cache while faults are armed — a
    poisoned VM must not populate them, and a cached result must not
    swallow a fault a real execution would have consumed.

    Execution and cache counters live in the observability plane
    ([Kit_obs]) as always-on registry counters — the single source of
    truth; {!executions}, {!mask_cache_stats}, {!mask_evictions},
    {!baseline_cache_stats} and {!search_cache_stats} are thin
    per-instance reads over them. *)

(** A divergence only an interleaved schedule exposes, deduplicated by
    the schedule-independent fingerprint of its masked diffs. *)
type concurrent = {
  cc_seeds : int list;     (** reproducing schedule seeds, ascending *)
  cc_fingerprint : int;    (** [Compare.fingerprint_diffs] of [cc_diffs] *)
  cc_diffs : Kit_trace.Compare.diff list;  (** masked diffs vs solo trace *)
  cc_raw_diffs : Kit_trace.Compare.diff list;
      (** the same comparison before masking *)
  cc_interfered : int list;  (** receiver call indices, after masking *)
}

type search = {
  sr_schedules : int;      (** candidate seeds examined *)
  sr_classes : int;        (** POR equivalence classes among them *)
  sr_executed : int;
  (** class representatives whose outcome the search carries: run by
      this search, or by the earlier one a search-memo hit returns *)
  sr_pruned : int;         (** [sr_schedules - sr_executed] *)
  sr_skipped : int;        (** representatives lost to crash/hang *)
  sr_findings : concurrent list;
}

val empty_search : search

type pkey = int * Kit_abi.Program.t
(** A cache key: [(Program.hash p, p)]. Structural equality on programs
    is [Program.equal], so the hash only picks a bucket. *)

type t = {
  env : Env.t;
  obs : Kit_obs.Obs.t;
  reruns : int;
  rerun_delta : int;
  mask_cache : (pkey, Kit_trace.Ast.t) Lru.t;
  baseline : bool;                (** baseline cache and search memo on? *)
  baseline_cache : (pkey, Kit_trace.Ast.t) Lru.t;
  access_cache : (int * pkey, (int * bool) array) Lru.t;
      (** (pid, program) -> solo (addr, is_write) sequence *)
  search_cache : (pkey * pkey * int, int * search) Lru.t;
      (** (sender, receiver, schedules) -> (fingerprint of the sequential
          masked diffs, search) *)
  c_execs : Kit_obs.Metrics.counter;  (** "exec.executions" *)
  c_hits : Kit_obs.Metrics.counter;   (** "exec.mask_hits" *)
  c_misses : Kit_obs.Metrics.counter; (** "exec.mask_misses" *)
  c_evictions : Kit_obs.Metrics.counter; (** "exec.mask_evictions" *)
  c_bhits : Kit_obs.Metrics.counter;     (** "exec.baseline_hits" *)
  c_bmisses : Kit_obs.Metrics.counter;   (** "exec.baseline_misses" *)
  c_shits : Kit_obs.Metrics.counter;     (** "exec.search_hits" *)
  c_smisses : Kit_obs.Metrics.counter;   (** "exec.search_misses" *)
  execs0 : int;                   (** counter values at creation: the *)
  hits0 : int;                    (** registry is shared across runner *)
  misses0 : int;                  (** incarnations, reads are deltas *)
  evictions0 : int;
  bhits0 : int;
  bmisses0 : int;
  shits0 : int;
  smisses0 : int;
}

val create :
  ?reruns:int -> ?rerun_delta:int -> ?mask_cache_cap:int ->
  ?baseline_cache:bool -> ?baseline_cache_cap:int ->
  ?obs:Kit_obs.Obs.t -> Env.t -> t
(** [mask_cache_cap] (default 4096) bounds the non-determinism mask
    cache and [baseline_cache_cap] (default 4096) each of the baseline,
    access and search caches; all evict least-recently-used.
    [baseline_cache] (default [true]) turns baseline and search
    memoization off entirely — the reference side of equivalence
    properties. [obs] (default {!Kit_obs.Obs.nop})
    receives the runner's counters; the accounting counters above record
    even through a disabled bundle. *)

val executions : t -> int
(** Program executions performed by this runner instance. *)

val run_receiver : t -> base:int -> Kit_abi.Program.t -> Kit_trace.Ast.t
val run_pair :
  t -> base:int -> Kit_abi.Program.t -> Kit_abi.Program.t -> Kit_trace.Ast.t

val run_interleaved :
  t -> schedule:Kit_kernel.Sched.schedule -> base:int ->
  Kit_abi.Program.t -> Kit_abi.Program.t -> Kit_trace.Ast.t
(** Execution A with sender and receiver as two schedulable tasks.
    Deterministic in the schedule; [Sched.Sequential] reproduces
    {!run_pair} byte-for-byte. Raises like {!execute} on panic or fuel
    exhaustion (in either task). *)

val solo_accesses : t -> pid:int -> Kit_abi.Program.t -> (int * bool) array
(** The program's solo instrumented access sequence ((address,
    is_write), in order) when run in container [pid] — cached; the raw
    material of partial-order reduction. *)

type sched_class = {
  cls_seeds : int list;    (** member seeds, ascending; head = representative *)
  cls_sequential : bool;   (** equivalent to the all-sender-first order *)
}

val schedule_classes :
  t -> schedules:int ->
  sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> sched_class list
(** Partition candidate seeds [0..schedules-1] into partial-order
    equivalence classes: seeds whose merged access order
    ([Sched.walk]), projected onto conflict addresses (both programs
    touch, at least one writes), is identical. First-seen order. Class
    identity is the exact projected order; its FNV hash only picks a
    bucket. *)

val baseline_trace : t -> Kit_abi.Program.t -> Kit_trace.Ast.t
(** The receiver's solo trace from the pristine snapshot at the
    reference clock base — execution B (memoized per receiver program
    unless disabled or faults are armed). *)

val nondet_mask : t -> Kit_abi.Program.t -> Kit_trace.Ast.t
(** The non-determinism mask of a receiver program (cached). *)

val mask_cache_stats : t -> int * int * int
(** [(hits, misses, live_entries)] of the mask cache. *)

val mask_evictions : t -> int
(** Mask-cache capacity evictions by this runner instance. *)

val baseline_cache_stats : t -> int * int * int
(** [(hits, misses, live_entries)] of the baseline cache. *)

val search_cache_stats : t -> int * int * int
(** [(hits, misses, live_entries)] of the search memo. *)

type outcome = {
  trace_a : Kit_trace.Ast.t;       (** receiver trace, sender ran first *)
  trace_b : Kit_trace.Ast.t;       (** receiver trace, solo *)
  raw_diffs : Kit_trace.Compare.diff list;
  masked_diffs : Kit_trace.Compare.diff list;
  interfered : int list;           (** receiver call indices, after masking *)
}

val execute :
  t -> sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> outcome
(** Raw execution: assumes the kernel survives. Under an armed fault
    plane this can raise [Fault.Kernel_panic] / [Fault.Fuel_exhausted];
    use {!try_execute} (or [Supervisor.execute]) when faults matter. *)

val search_schedules :
  t -> schedules:int ->
  sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> outcome -> search
(** Schedule search for one test case given its sequential [outcome]:
    one interleaved execution per non-sequential class, divergences
    fingerprinted and deduplicated, findings matching the sequential
    outcome's fingerprint dropped (same root cause, already reported).
    Each distinct raw receiver result (structural equality) is decoded,
    diffed and masked once per case; the first diffs with a fingerprint
    are the finding's diffs, masked and raw, and the finding keeps no
    trace ([Seeded] on its first seed re-derives it with
    {!run_interleaved}). Representatives that panic or hang are
    counted in [sr_skipped], not quarantined. Memoized per (sender,
    receiver, schedules) unless [baseline_cache] is off or faults are
    armed: a hit, which also needs the sequential outcome's
    fingerprint to match, returns the earlier search and executes
    nothing. Never raises on panic/fuel; [Fault.Snapshot_corrupt] still
    escapes (the supervisor's job). *)

(** Failure-aware execution result: executors die in the real system
    (kernel panics, runaway programs killed by the fuel deadline), so an
    execution has three honest outcomes, not one. *)
type status =
  | Completed of outcome
  | Crashed of Kit_kernel.Fault.panic_info
  | Hung

val try_execute :
  t -> sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> status
(** Like {!execute} but catches kernel panics and fuel exhaustion.
    Infrastructure faults ([Fault.Snapshot_corrupt], [Fault.Boot_failed])
    still escape: recovering from those needs a VM reboot, which is the
    supervisor's job. *)

val test_interference :
  t -> sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> int list
(** The TestFuncI primitive of Algorithm 2. *)

val bounds_of : t -> Kit_abi.Program.t -> Kit_trace.Bounds.t
(** Learn a receiver's per-leaf value bounds from receiver-only runs at
    different clock bases (the paper's section 7 extension). *)

val execute_bounds :
  t -> sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t ->
  Kit_trace.Bounds.violation list
(** Bounds-mode execution: flag values in the sender-preceded trace that
    fall outside the learned bounds — detects interference on resources
    that are non-deterministic by nature (e.g. time-namespace clocks). *)
