(** The end-to-end KIT pipeline (paper, Figure 3): corpus → profiling →
    data-flow test case generation and clustering → two-phase execution
    → divergence detection and filtering → diagnosis (Algorithm 2) →
    report aggregation. Fully deterministic for a given seed.

    Execution runs under the supervised runtime: crashes and hangs are
    retried and quarantined rather than killing the campaign. With a
    case-result {!log} ({!Caselog} keeps one on disk) an interrupted
    campaign resumes without re-executing completed representatives.

    The pipeline has one front end and one back end. The front end
    profiles one program at a time, marks the coverage ledger and folds
    the program into online cluster tables ({!Kit_gen.Cluster.feed}):
    {!prepare} for every batch caller, and {!stream}/{!extend}, which
    also execute newly-sealed representatives as they appear. The back
    end is the one execute driver ({!start} … {!finish}), which folds
    every per-case result into the campaign — a [kit serve] tenant's
    too — so batch and streaming campaigns produce the same result —
    summary and coverage included, and the execution count too without
    faults on one domain (property-tested). A case that reports is
    diagnosed (Algorithm 2) where it ran, so its culprits are part of
    its result and {!finish} runs no kernel. *)

type options = {
  config : Kit_kernel.Config.t;
  spec : Kit_spec.Spec.t;
  corpus_size : int;
  seed : int;
  strategy : Kit_gen.Cluster.strategy;
  reruns : int;                    (** non-determinism re-executions *)
  diagnose : bool;
  (** run Algorithm 2 on each case that reports, on the supervisor that
      executed it, and aggregate *)
  faults : Kit_kernel.Fault.schedule;  (** injected fault schedule *)
  fuel : int;                      (** per-execution step budget *)
  max_retries : int;               (** supervisor retry budget per case *)
  baseline_cache : bool;
  (** memoize per-program baselines and per-pair schedule searches
      (default [true]): the receiver-solo baseline trace per receiver
      program and, with [schedules > 1], the schedule search per
      (sender, receiver) pair. Never changes reports, funnel,
      quarantine, concurrent findings or search totals
      (property-tested), only the execution count; [false] is the
      reference run. *)
  domains : int;
  (** execute-phase parallelism (default 1 = sequential). Each chunk is
      dealt over this many OCaml domains by receiver program — whole
      receiver groups, largest first, to the least-loaded domain — one
      isolated supervised environment per domain, and merged back in
      representative order: reports, funnel, quarantine, keyed reports
      and, without faults, the execution count are identical to the
      sequential schedule (property-tested). A receiver's cases share a
      domain, so its baseline, mask and pair searches are computed
      there once, as sequentially, and its reports are diagnosed there
      on warm caches. With [domains > 1], {!t.sup_stats} and
      {!t.fault_counters} add every domain's supervisor to the
      campaign's own, as the bundle's metrics do. *)
  schedules : int;
  (** interleaved schedule seeds searched per completed test case
      (default 1 = sequential only). With [schedules > 1] each completed
      case additionally runs {!Kit_exec.Supervisor.search_schedules}:
      seeds [0..schedules-1] are partitioned into POR equivalence
      classes over the pair's conflicting accesses and one
      representative per non-sequential class executes interleaved —
      once per (sender, receiver) pair while [baseline_cache] is on and
      no fault is armed: later cases of the pair take the memoized
      search. Divergences that survive masking and the resource
      specification become {!t.concurrent} reports, deduplicated by
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
  mutable sched_executed : int;
  (** class representatives whose outcome the cases carry — executed
      for the case, or by the earlier case of the same pair whose
      search the memo returned; kernel work is [executions] *)
  mutable sched_pruned : int;
  (** candidate seeds minus [sched_executed] *)
  mutable sched_skipped : int;     (** searches/reps lost to crashes *)
}

val sched_create : unit -> sched_stats

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

val attrition_balanced : attrition -> bool
(** [at_generated = at_absorbed + Σ terminal stages] — holds for every
    finished campaign by construction (property-tested). *)

(** Phase wall-clock timings. Thin reads over the bundle's volatile
    ["time.*"] gauges — the registry is the source of truth. *)
type timings = {
  profile_s : float;               (** sub-phase of the front end *)
  generate_s : float;              (** sub-phase of the front end *)
  execute_s : float;
  diagnose_s : float;
  (** sub-phase of execute: Algorithm 2 on the campaign's own
      supervisor, reset per execute phase (a stream's covers its
      life). 0 when cases run on domains or pool workers. *)
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
      across [domains], process pools and resumed logs.
      Summaries mirror into always-on ["campaign.cov_*"] counters. *)
  attrition : attrition;
  (** funnel attrition totals; {!attrition_balanced} always holds.
      Mirrors into always-on ["campaign.attr_*"] counters. *)
}

type prepared
(** A campaign's corpus, one clustering result per strategy named to
    {!prepare}, its bundle and its coverage ledger. No profile and no
    access map outlives the front end. *)

val prepare : ?strategies:Kit_gen.Cluster.strategy list -> options -> prepared
(** Run the front end over [options]' corpus in one profiling pass,
    feeding one cluster table per keyed strategy in [strategies]
    (default [[options.strategy]]; Table 4 names DF-IA, DF-ST-1 and
    DF-ST-2). DF and RAND results come from any table's flow universe
    and the corpus size, so any of them can be generated later too.
    Profiling and feeding time go to the ["time.profile_s"] and
    ["time.generate_s"] gauges, inside the ["phase.front"] span.
    @raise Invalid_argument if [strategies] is empty. *)

val prepared_corpus : prepared -> Kit_abi.Program.t array
(** The generated corpus, for external execution drivers that need the
    program array itself (pool context registration,
    {!lost_case_result}). *)

val generate_prepared :
  ?strategy:Kit_gen.Cluster.strategy -> prepared -> Kit_gen.Cluster.result
(** The clusters and representatives of [strategy] (default
    [options.strategy]). Asynchronous drivers like the serve scheduler
    call it up front so many tenants' representatives can interleave on
    one shared pool.
    @raise Invalid_argument for a keyed strategy {!prepare} was not
    given. *)

(** {2 Per-case execution}

    Every path — sequential, domain-parallel, the process pool,
    streaming — runs each cluster representative through the same
    {!exec_case}, and the execute driver folds the resulting
    {!case_result}s in representative order into one result builder,
    which is what makes alternative schedules outcome-equivalent. *)

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
  cr_culprits : Kit_report.Diagnose.pair list option;
      (** Algorithm 2's culprit pairs for [cr_report], found on the
          supervisor that executed the case; [None] when the case has no
          report or diagnosis is off *)
}

val supervisor : obs:Kit_obs.Obs.t -> options -> Kit_exec.Supervisor.t
(** Boot the supervised execution environment the built-in paths use
    (fuel, retry budget, fault schedule and baseline cache from
    [options]). *)

val exec_case :
  ?attrs:(string * string) list ->
  options -> Kit_abi.Program.t array -> Kit_exec.Supervisor.t ->
  Kit_gen.Testcase.t -> case_result
(** Execute one cluster representative under supervision and, when
    [options.diagnose] is set and it reports, diagnose the report on
    the same supervisor. [attrs] are correlation attributes stamped on
    the execution's trace events.
    @raise Kit_exec.Supervisor.Gave_up on permanent infrastructure
    faults, in the case or in a re-test — drivers absorb it at their
    chunk boundary. *)

val lost_case_result :
  ?attempts:int ->
  Kit_abi.Program.t array -> why:string -> Kit_gen.Testcase.t -> case_result
(** The quarantined crash report for a case whose execution environment
    died under it ([Worker_lost]) — what drivers convert un-runnable
    cases into instead of aborting. *)

val deal :
  key:(Kit_gen.Testcase.t -> int) -> int ->
  (int * Kit_gen.Testcase.t) list -> (int * Kit_gen.Testcase.t) list array
(** [deal ~key n cases] splits [(case, representative)] pairs into [n]
    slices by receiver group, so each slice's runner caches hit as they
    do sequentially: the cases of one [key] go whole, largest group
    first, to the least-loaded slice (ties to the lowest index), and a
    slice keeps its cases in case order. [--domains] keys groups by the
    receiver program's hash, the process pool by its corpus index. *)

(** {2 The execute driver}

    Every campaign result is built by one driver, in four calls on a
    {!run}: {!start} replays the results a {!log} already holds,
    {!todo} lists the remaining representatives with their global case
    indices for an executor, {!complete} takes each completion as it
    arrives — folding it, recording it in the log and saving the log
    every [log.every] completions — and {!finish} builds the result.
    {!drive} and {!stream_result} make the four calls around an
    {!executor} (in process by default, or the process pool,
    [Kit_serve.Pool.executor]); a [kit serve] tenant makes them itself
    on the shared pool. Every campaign count (funnel, attrition,
    coverage attribution, quarantine, schedule totals, keyed reports,
    and {!t.executions} with the diagnosis re-tests) is a fold of
    per-case results, so the results are all a log needs to hold. *)

type executor =
  options -> Kit_abi.Program.t array -> Kit_exec.Supervisor.t ->
  batch:int -> (int * Kit_gen.Testcase.t) list ->
  on_done:(int -> case_result -> int -> unit) -> unit
(** [executor options corpus sup ~batch cases ~on_done] runs every
    [(case, representative)] of [cases] and calls
    [on_done case result executions] once per case as it completes, in
    any order; [executions] is what the case cost, diagnosis re-tests
    included. [sup] is the campaign's execute-phase supervisor; [batch]
    is the most completions an executor should hold back before
    reporting them. *)

(** A case-result log, as the driver sees it. *)
type log = {
  replay : int -> Kit_gen.Testcase.t -> (case_result * int) option;
      (** the result and execution count an earlier run recorded for
          case [i], if any *)
  record : Kit_gen.Testcase.t -> case_result -> int -> unit;
      (** one completion, as it arrives *)
  every : int;                    (** completions between saves *)
  save : unit -> unit;
      (** write the recorded completions; a process killed after it
          loses none of them, while a machine crash may lose what the
          log has not synced *)
  sync : unit -> unit;
      (** make everything saved durable, surviving a machine crash *)
  close : unit -> unit;
      (** called once the result is built; a campaign log deletes its
          file *)
}

type run
(** One campaign on the driver. It keeps [prepared]'s options, corpus,
    bundle and ledger and the folded results, never the todo list. *)

val start : ?log:log -> prepared -> Kit_gen.Cluster.result -> run
(** Replay and fold every result [log] holds for [generation]'s
    representatives. With diagnosis on, a logged result with a report
    but no culprits (a log written before results carried them) is not
    replayed: its case runs again. *)

val todo : run -> (int * Kit_gen.Testcase.t) list
(** The cases with no result yet, in case order. *)

val complete : run -> int -> case_result -> int -> unit
(** [complete run case result executions]: an executor's [on_done].
    Call it once per case. With diagnosis on, a result with a report
    carries its culprits, as {!exec_case} gives it. *)

val finish : ?sup:Kit_exec.Supervisor.t -> run -> t
(** Build the result from the fold, then close the log: a pure fold
    that runs no kernel. [sup] (default none: zero counters) supplies
    {!t.sup_stats} and {!t.fault_counters} only. Does not save the log.
    @raise Invalid_argument if a case has no result. *)

val run_cases : run -> int
val run_completed : run -> int
(** Cases with a result, replayed or completed. *)

val run_replayed : run -> int
val run_executions : run -> int
(** The folded cases' executions, diagnosis re-tests included. *)

val drive : ?executor:executor -> run -> t
(** Run {!todo} on [executor] in the execute phase, on a supervisor
    booted for it, then {!finish}. The default executor runs on that
    supervisor, or deals the cases over [options.domains] domains, in
    chunks of [log.every] cases. The ["time.diagnose_s"] gauge starts
    the phase at 0. The log is saved and synced when the executor
    returns, and before an exception it raises propagates. Without a log no result
    is encoded, and the default executor runs every representative as
    one chunk. *)

val execute_prepared : ?strategy:Kit_gen.Cluster.strategy -> prepared -> t
(** {!drive} of {!start} on {!generate_prepared} (Table 4 runs each
    strategy on the same prepared inputs). *)

val run : options -> t
(** [run options] = [execute_prepared (prepare options)]. *)

(** {2 Streaming campaigns}

    Execute-while-generate: {!stream} runs the front end over one
    cluster table and executes newly-sealed and representative-changed
    cluster representatives immediately — no global clustering barrier,
    so the first report lands while most of the corpus is still
    unprofiled. Every executed representative joins an in-memory memo
    keyed by {!Kit_gen.Testcase.fingerprint}.

    {!stream_result} is the execute driver over the finalized clusters
    with that memo as its log, on the stream's own supervisor: streamed
    representatives replay, and any others (RAND draws, which exist only
    over the final corpus) execute there and join the memo.

    {!extend} grows the corpus of a live stream by [add] programs — a
    delta campaign. Corpus generation is prefix-stable, so the grown
    corpus extends the original and only clusters that are new or whose
    representative changed execute; every other representative replays
    from the memo with the culprits it was diagnosed with. *)

type stream

type stream_stats = {
  fed : int;                       (** programs folded so far *)
  executed_cases : int;            (** rep executions incl. re-runs *)
  reexecuted : int;                (** representative-change re-runs *)
  first_report_s : float option;
  (** wall-clock seconds from stream creation to the first executed
      case that reported *)
  peak_feed_pairs : int;
  (** largest per-feed working set
      ({!Kit_gen.Cluster.peak_feed_pairs}): the candidate group pairs
      one program's feed visited *)
}

val stream : options -> stream
(** Profile, cluster and execute [options.corpus_size] programs
    incrementally. Returns once the corpus is folded; call
    {!stream_result} for the assembled campaign. *)

val stream_stats : stream -> stream_stats

val stream_result : stream -> t
(** The campaign result over the corpus fed so far: the execute driver
    over {!Kit_gen.Cluster.finalize}, replaying the memo. Its
    [timings.execute_s] includes the eager executions. Calling it again
    executes nothing new; the stream stays live for {!extend}. *)

val extend : stream -> add:int -> t
(** [extend s ~add] grows the corpus by [add] programs, executes only
    new and representative-changed clusters (and RAND draws not in the
    memo), and returns {!stream_result} for the grown corpus — the
    result of a from-scratch campaign of the final corpus size, with
    strictly fewer delta executions (property-tested).
    @raise Invalid_argument if [add] is negative. *)
