(** The end-to-end KIT pipeline (paper, Figure 3): corpus → profiling →
    data-flow test case generation and clustering → two-phase execution
    → divergence detection and filtering → diagnosis (Algorithm 2) →
    report aggregation. Fully deterministic for a given seed.

    Execution runs under the supervised runtime: crashes and hangs are
    retried and quarantined rather than killing the campaign, and the
    execute phase checkpoints so interrupted campaigns resume without
    re-execution.

    The pipeline comes in two shapes built from the same {!Pipeline}
    stages and the same per-case executor: the batch path ({!run}) and
    the streaming path ({!stream}/{!extend}), which profiles one program
    at a time, folds it into the online cluster table and executes
    newly-sealed representatives immediately. Both produce structurally
    identical reports, funnel, quarantine and [df_total]
    (property-tested). *)

type options = {
  config : Kit_kernel.Config.t;
  spec : Kit_spec.Spec.t;
  corpus_size : int;
  seed : int;
  strategy : Kit_gen.Cluster.strategy;
  reruns : int;                    (** non-determinism re-executions *)
  diagnose : bool;                 (** run Algorithm 2 + aggregation *)
  faults : Kit_kernel.Fault.schedule;  (** injected fault schedule *)
  fuel : int;                      (** per-execution step budget *)
  max_retries : int;               (** supervisor retry budget per case *)
  baseline_cache : bool;
  (** memoize receiver-solo baseline traces per receiver program
      (default [true]); never changes reports, funnel or quarantine
      (property-tested), only the execution count *)
  domains : int;
  (** execute-phase parallelism (default 1 = sequential). Each chunk is
      dealt round-robin over this many OCaml domains, one isolated
      supervised environment per domain, and merged back in
      representative order: reports, funnel and quarantine are
      structurally identical to the sequential schedule
      (property-tested). With [domains > 1], {!t.sup_stats} and
      {!t.fault_counters} describe only the diagnosis environment — the
      per-domain supervision counters live in the bundle's metrics,
      folded in with {!Kit_obs.Metrics.absorb}. *)
  schedules : int;
  (** interleaved schedule seeds searched per completed test case
      (default 1 = sequential only). With [schedules > 1] each completed
      case additionally runs {!Kit_exec.Supervisor.search_schedules}:
      seeds [0..schedules-1] are partitioned into POR equivalence
      classes over the pair's conflicting accesses and one
      representative per non-sequential class executes interleaved.
      Divergences that survive masking and the resource specification
      become {!t.concurrent} reports, deduplicated by
      schedule-independent diff fingerprint; the sequential funnel,
      reports and diagnosis are untouched. *)
  obs : Kit_obs.Obs.t option;
  (** observability bundle shared with the supervisor and runners;
      [None] (the default) gives each campaign a fresh private bundle,
      so phase timings are recorded either way. Observability never
      changes campaign outcomes (property-tested). *)
}

val default_options : options

(** Schedule-search accounting, accumulated across the campaign's cases
    like the funnel; all zeros when [options.schedules = 1]. *)
type sched_stats = {
  mutable sched_candidates : int;  (** completed cases searched *)
  mutable sched_classes : int;     (** POR equivalence classes *)
  mutable sched_executed : int;    (** class representatives run *)
  mutable sched_pruned : int;      (** seeds never executed *)
  mutable sched_skipped : int;     (** searches/reps lost to crashes *)
}

val sched_create : unit -> sched_stats

val add_sched : sched_stats -> sched_stats -> unit
(** [add_sched acc s] folds [s] into [acc] — how per-case and
    per-worker schedule-search totals aggregate. *)

(** Funnel attrition accounting: every generated data-flow case is
    charged to exactly one terminal stage (see {!attrition_balanced}),
    so a case that disappears anywhere in the pipeline is visible here
    with its drop reason. The quarantine stages count {e cases} whose
    execution died; the campaign quarantine list counts crash reports,
    which can exceed this when schedule search crashes after a
    completed sequential run. *)
type attrition = {
  mutable at_generated : int;       (** unclustered data-flow cases *)
  mutable at_absorbed : int;        (** clustered into a representative *)
  mutable at_quar_panic : int;      (** executed rep panicked the kernel *)
  mutable at_quar_hung : int;       (** executed rep hung forever *)
  mutable at_quar_lost : int;       (** execution environment died *)
  mutable at_no_divergence : int;   (** executed, traces identical *)
  mutable at_filtered_nondet : int; (** dropped by the rerun filter *)
  mutable at_filtered_resource : int;  (** dropped by the resource filter *)
  mutable at_reported : int;        (** survived the whole funnel *)
}

val attrition_create : unit -> attrition

val attrition_balanced : attrition -> bool
(** [at_generated = at_absorbed + Σ terminal stages] — holds for every
    finished campaign by construction (property-tested). *)

(** Phase wall-clock timings. Thin reads over the bundle's volatile
    ["time.*"] gauges — the registry is the source of truth. *)
type timings = {
  profile_s : float;
  generate_s : float;
  execute_s : float;
  diagnose_s : float;
}

type t = {
  options : options;
  corpus : Kit_abi.Program.t array;
  generation : Kit_gen.Cluster.result;
  df_total : int;
  (** unclustered data-flow count, read from
      [generation.Cluster.df_total] (no second map scan) *)
  funnel : Kit_detect.Filter.funnel;
  reports : Kit_detect.Report.t list;
  concurrent : Kit_detect.Report.t list;
  (** schedule-search findings ([Report.origin = Concurrent]), in
      representative order; kept out of the sequential funnel and out of
      Algorithm 2 diagnosis (which re-tests sequentially — meaningless
      for a schedule-dependent divergence). Always [[]] when
      [options.schedules = 1]. *)
  sched : sched_stats;
  (** schedule-search totals; all zeros when [options.schedules = 1] *)
  quarantined : Kit_exec.Supervisor.crash list;
  (** test cases that kept killing the kernel, as crash reports *)
  keyed : Kit_report.Aggregate.keyed list;
  agg_r : Kit_report.Aggregate.group list;
  agg_rs : Kit_report.Aggregate.group list;
  executions : int;
  sup_stats : Kit_exec.Supervisor.stats;
  fault_counters : Kit_kernel.Fault.counters;
  timings : timings;
  obs : Kit_obs.Obs.t;
  (** the resolved bundle: ["campaign.*"] funnel/cluster counters,
      ["phase.*"] spans, ["sup.*"] supervision counters and ["exec.*"]
      execution counters, ready for {!Kit_obs.Obs.export_lines} *)
  coverage : Kit_obs.Coverage.t;
  (** the campaign coverage ledger: one per-variable state machine for
      every instrumented, spec-protected shared variable — touched
      (raw profiling), written/read (access-map universes), paired
      (overlapping write/read observed) and attributed (pinned by a
      report's data flow). Deterministic for a given seed: byte-stable
      across [domains], process pools and checkpoint schedules.
      Summaries mirror into always-on ["campaign.cov_*"] counters. *)
  attrition : attrition;
  (** funnel attrition totals; {!attrition_balanced} always holds.
      Mirrors into always-on ["campaign.attr_*"] counters. *)
}

type prepared
(** Corpus + profiles + access map, shareable across strategies
    (Table 4 runs the same inputs through each strategy). *)

val prepare : options -> prepared

val prepared_corpus : prepared -> Kit_abi.Program.t array
(** The generated corpus, for external execution drivers that need the
    program array itself (pool context registration,
    {!lost_case_result}). *)

(** {2 Checkpointing}

    The execute phase — the long-running part of a campaign — can pause
    after any number of cluster representatives and resume later, even
    in a fresh process: the checkpoint value carries the funnel, the
    accumulated reports and quarantine, the coverage-ledger delta and
    attrition counts, and an options fingerprint that resume validates.
    Chunked execution is outcome-equivalent to a straight-through run
    (property-tested), and ledger state is monotone across resumes:
    re-preparation re-marks the profiling rungs and the absorbed delta
    restores attribution. *)

type checkpoint

val checkpoint_progress : checkpoint -> int * int
(** [(completed, total)] cluster representatives. *)

val checkpoint_reports : checkpoint -> int
(** Reports accumulated so far — lets callers poll chunked execution for
    time-to-first-report without finishing the phase. *)

val save_checkpoint : string -> checkpoint -> unit
(** Write a checkpoint file in the validated KITCKPT1 container
    ({!Checkpoint}): magic, kind tag, payload length and digest. *)

val load_checkpoint : string -> (checkpoint, Checkpoint.error) result
(** Validate and load a checkpoint. Magic, kind, length and digest are
    checked before any byte is deserialised; truncation or corruption
    comes back as {!Checkpoint.error.Checkpoint_corrupt}, never a raw
    [Failure] or a crash inside [Marshal]. *)

val execute_partial :
  ?strategy:Kit_gen.Cluster.strategy -> ?resume:checkpoint -> budget:int ->
  prepared -> [ `Done of t | `Paused of checkpoint ]
(** Execute up to [budget] more cluster representatives, starting from
    [resume] if given (its strategy is used unless [strategy] overrides;
    seed, corpus size and cluster count must match, or the call raises
    [Invalid_argument]). Each call boots a fresh supervised environment,
    like a campaign process restarted after an interrupt. *)

val execute_prepared :
  ?strategy:Kit_gen.Cluster.strategy -> ?resume:checkpoint -> prepared -> t

val run : options -> t
(** [run options] = [execute_prepared (prepare options)]. *)

(** {2 Per-case execution — the driver seam}

    The building blocks external execution drivers (the forked process
    pool in [kit.serve], remote executors) are written against. Every
    built-in path — sequential, domain-parallel, streaming — runs each
    cluster representative through the same {!exec_case}, and every
    path, external executors included, folds the resulting
    {!case_result}s in representative order through one per-case fold
    into one result builder, which is what makes alternative schedules
    outcome-equivalent. *)

(** One executed cluster representative, self-contained: classification
    is order-free, so results can be produced under any schedule and
    folded back in representative order. *)
type case_result = {
  cr_tc : Kit_gen.Testcase.t;
  cr_funnel : Kit_detect.Filter.funnel;
      (** this case's funnel increments *)
  cr_report : Kit_detect.Report.t option;
  cr_concurrent : Kit_detect.Report.t list;
      (** this case's schedule-search findings *)
  cr_sched : sched_stats;
      (** this case's schedule-search accounting *)
  cr_crashes : Kit_exec.Supervisor.crash list;
      (** quarantined by this case *)
}

val supervisor : obs:Kit_obs.Obs.t -> options -> Kit_exec.Supervisor.t
(** Boot the supervised execution environment the built-in paths use
    (fuel, retry budget, fault schedule and baseline cache from
    [options]). *)

val exec_case :
  ?attrs:(string * string) list ->
  options -> Kit_abi.Program.t array -> Kit_exec.Supervisor.t ->
  Kit_gen.Testcase.t -> case_result
(** Execute one cluster representative under supervision. [attrs] are
    correlation attributes stamped on the execution's trace events.
    @raise Kit_exec.Supervisor.Gave_up on permanent infrastructure
    faults — drivers absorb it at their chunk boundary. *)

val lost_case_result :
  ?attempts:int ->
  Kit_abi.Program.t array -> why:string -> Kit_gen.Testcase.t -> case_result
(** The quarantined crash report for a case whose execution environment
    died under it ([Worker_lost]) — what drivers convert un-runnable
    cases into instead of aborting. *)

type executor =
  options -> Kit_abi.Program.t array -> Kit_gen.Cluster.result ->
  case_result list * int
(** An execute-phase replacement: given the prepared corpus and the
    generated clusters, return per-representative case results in
    representative order plus the total execution count. *)

val run_with_executor : executor:executor -> options -> t
(** A full campaign — prepare, generate, execute, diagnose, aggregate —
    with the execute phase delegated to [executor]. Used by
    [kit campaign --procs N] to run execution on the forked process
    pool while diagnosis and reporting stay in-process. *)

val generate_prepared :
  ?strategy:Kit_gen.Cluster.strategy -> prepared -> Kit_gen.Cluster.result
(** The generate phase alone (clusters + representatives from the
    prepared access map, with the usual phase span and counters).
    {!run_with_executor} is [prepare] → [generate_prepared] → executor →
    {!assemble}; asynchronous drivers like the serve scheduler call the
    pieces separately so many tenants' representatives can interleave on
    one shared pool. *)

val assemble :
  ?execute_s:float ->
  prepared -> Kit_gen.Cluster.result -> case_result list ->
  executions:int -> t
(** Fold per-case results (in representative order, one per
    representative of the generation) into a finished campaign:
    funnel/report/quarantine accumulation, diagnosis on a fresh
    sequential environment, aggregation — the back half of
    {!run_with_executor}. *)

(** {2 Streaming campaigns}

    Execute-while-generate: {!stream} profiles one program at a time,
    folds it into the online cluster table
    ({!Kit_gen.Cluster.start}/[feed]) and executes newly-sealed cluster
    representatives immediately — no global clustering barrier, so the
    first report lands while most of the corpus is still unprofiled.
    {!stream_result} assembles a campaign result structurally identical
    to the batch {!run} of the same options (property-tested; execution
    counts and wall-clock shape differ).

    {!extend} grows the corpus of a live stream by [add] programs and
    re-executes only clusters that are new or whose representative
    changed — a delta campaign. Corpus generation is prefix-stable, so
    the grown corpus extends the original and cached per-cluster
    execution and diagnosis results stay valid for untouched clusters. *)

type stream

type stream_stats = {
  fed : int;                       (** programs folded so far *)
  live_clusters : int;
  executed_cases : int;            (** rep executions incl. re-runs *)
  reexecuted : int;                (** representative-change re-runs *)
  first_report_s : float option;
  (** wall-clock seconds from stream creation to the first report *)
  peak_feed_pairs : int;
  (** largest per-feed working set
      ({!Kit_gen.Cluster.peak_feed_pairs}) — the streaming counterpart
      of the batch pass's [df_total]-sized sweep *)
}

val stream : options -> stream
(** Profile, cluster and execute [options.corpus_size] programs
    incrementally. Returns once the corpus is folded; call
    {!stream_result} for the assembled campaign. *)

val stream_stats : stream -> stream_stats

val stream_result : stream -> t
(** Assemble the campaign result from the per-cluster caches: drains the
    cluster state, orders cached case results in batch representative
    order and diagnoses any reported cluster not already in the keyed
    cache. Idempotent; the stream stays live for {!extend}. *)

val extend : stream -> add:int -> t
(** [extend s ~add] grows the corpus by [add] programs, re-executes only
    new and representative-changed clusters, and returns the assembled
    result for the grown corpus — identical to a from-scratch campaign
    of the final corpus size, with strictly fewer delta executions
    (property-tested). *)
