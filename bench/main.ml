(* The benchmark harness: regenerates every evaluation table of the
   paper (Tables 2-6 and the section 6.5 performance figures), prints the
   jump-label and specification-refinement ablations called out in
   DESIGN.md, and then times each pipeline stage with Bechamel — one
   Test.make per table plus micro-benchmarks of the hot paths.

   Environment knobs: KIT_BENCH_CORPUS (table corpus size, default 320),
   KIT_BENCH_QUOTA (seconds per bechamel test, default 0.5),
   KIT_BENCH_EXEC_CORPUS (hot-path section corpus, default 320),
   KIT_BENCH_ONLY_EXEC (run only the hot-path section — the CI smoke
   entry point), KIT_BENCH_PIPE_CORPUS / KIT_BENCH_PIPE_ADD (streaming
   pipeline section corpus and growth, defaults 160/64),
   KIT_BENCH_ONLY_PIPELINE (run only the streaming pipeline section),
   KIT_BENCH_TRACE_CORPUS / KIT_BENCH_ONLY_TRACE (trace-analysis
   section corpus, default 160, and its section-only switch),
   KIT_BENCH_POOL_CORPUS / KIT_BENCH_POOL_PROCS / KIT_BENCH_ONLY_POOL
   (process-pool section: corpus default 96, procs default 4, and its
   section-only switch),
   KIT_BENCH_SERVE_CORPUS / KIT_BENCH_SERVE_PROCS / KIT_BENCH_ONLY_SERVE
   (multi-tenant scheduler section: per-tenant corpus default 96, procs
   default 4, and its section-only switch),
   KIT_BENCH_ONLY_REPR (run only the compact-representation
   micro-section: packed trace compare, bitset flow intersection and
   FNV fingerprints against their naive baselines),
   KIT_BENCH_SCHED_CORPUS / KIT_BENCH_SCHED_N / KIT_BENCH_SCHED_ITERS /
   KIT_BENCH_ONLY_SCHED (interleaved schedule-search section: campaign
   corpus default 96, schedule seeds per case default 128, sequential
   overhead iterations default 400, and its section-only switch),
   KIT_BENCH_COV_CORPUS / KIT_BENCH_COV_ITERS / KIT_BENCH_ONLY_COV
   (coverage-ledger section: campaign corpus default 96, isolated
   marking-pass iterations default 50, and its section-only switch),
   KIT_BENCH_JSON=PATH (write the section timings and speedup ratios as
   a single JSON object to PATH). *)

open Bechamel
open Toolkit

module Campaign = Kit_core.Campaign
module Tables = Kit_core.Tables
module Oracle = Kit_core.Oracle
module Known_bugs = Kit_core.Known_bugs
module Cluster = Kit_gen.Cluster
module Dataflow = Kit_gen.Dataflow
module Corpus = Kit_abi.Corpus
module Syzlang = Kit_abi.Syzlang
module Config = Kit_kernel.Config
module Bugs = Kit_kernel.Bugs
module State = Kit_kernel.State
module Spec = Kit_spec.Spec
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Supervisor = Kit_exec.Supervisor
module Fault = Kit_kernel.Fault
module Collect = Kit_profile.Collect
module Compare = Kit_trace.Compare
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Jsonl = Kit_obs.Jsonl
module Tracer = Kit_obs.Tracer
module Spantree = Kit_obs.Spantree
module Profile = Kit_obs.Profile
module Pool = Kit_serve.Pool
module Proto = Kit_serve.Proto
module Sched = Kit_serve.Sched
module Tenant = Kit_serve.Tenant
module Ast = Kit_trace.Ast
module Bitset = Kit_compact.Bitset
module Rss = Kit_compact.Rss
module Coverage = Kit_obs.Coverage
module Stackrec = Kit_profile.Stackrec
module Accessmap = Kit_profile.Accessmap

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some v -> (
    match float_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let corpus_size = getenv_int "KIT_BENCH_CORPUS" 320
let quota = getenv_float "KIT_BENCH_QUOTA" 0.5

(* --- table regeneration ------------------------------------------------ *)

let print_tables () =
  Fmt.pr "=============================================================@.";
  Fmt.pr " KIT evaluation tables (corpus size %d, seed %d)@." corpus_size
    Campaign.default_options.Campaign.seed;
  Fmt.pr "=============================================================@.@.";
  let options = { Campaign.default_options with Campaign.corpus_size } in
  let prepared = Campaign.prepare options in
  let _, t4, (df_ia, _, _, _) = Tables.table4 prepared in
  let found, t2 = Tables.table2 df_ia in
  Fmt.pr "-- Table 2: new functional interference bugs (paper: 9 found) --@.";
  Fmt.pr "%s@." t2;
  Fmt.pr "reproduced %d/9 new bugs@.@." (List.length found);
  let outcomes, t3 = Tables.table3 () in
  Fmt.pr "-- Table 3: known namespace bugs (paper: 5/7 reproduced) --@.";
  Fmt.pr "%s@." t3;
  Fmt.pr "reproduced %d/7 known bugs@.@." (Known_bugs.detected_count outcomes);
  Fmt.pr "-- Table 4: test case generation strategies --@.";
  Fmt.pr
    "   (paper: DF-IA 1.13M < DF-ST-1 3.32M < DF-ST-2 6.61M < RAND 8.66M << DF 234M;@.";
  Fmt.pr "    DF strategies 9/9, RAND 5/9)@.";
  Fmt.pr "%s@." t4;
  Fmt.pr "-- Table 5: test report filtering (paper: 15353 -> 891 -> 808) --@.";
  Fmt.pr "%s@.@." (Tables.table5 df_ia);
  let _, t6 = Tables.table6 df_ia in
  Fmt.pr "-- Table 6: test report aggregation --@.";
  Fmt.pr "%s@." t6;
  Fmt.pr "-- Performance (section 6.5) --@.";
  Fmt.pr "%s@.@." (Tables.performance df_ia)

(* --- ablations ---------------------------------------------------------- *)

(* CONFIG_JUMP_LABEL hides the flow-label static key from the profiler:
   data-flow generation misses bugs #2/#4 while RAND still finds them
   (paper, section 6.1). *)
let print_jump_label_ablation () =
  Fmt.pr "-- Ablation: CONFIG_JUMP_LABEL=y (paper, sec. 6.1) --@.";
  let options =
    { Campaign.default_options with
      Campaign.corpus_size;
      config = Config.v5_13 ~jump_label:true () }
  in
  let prepared = Campaign.prepare options in
  let df = Campaign.execute_prepared prepared in
  let found_df = Oracle.new_bugs_found df.Campaign.keyed in
  let missing =
    List.filter
      (fun b -> not (List.exists (Bugs.equal b) found_df))
      Bugs.new_bugs
  in
  Fmt.pr "DF-IA with jump labels: %d/9 (missing: %a)@." (List.length found_df)
    (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
    missing;
  let rand =
    Campaign.execute_prepared
      ~strategy:(Cluster.Rand (4 * corpus_size))
      prepared
  in
  let found_rand = Oracle.new_bugs_found rand.Campaign.keyed in
  let flowlabel_found =
    List.exists (Bugs.equal Bugs.B2_flowlabel_send) found_rand
    || List.exists (Bugs.equal Bugs.B4_flowlabel_connect) found_rand
  in
  Fmt.pr "RAND with jump labels: %d/9; finds a flow-label bug: %b@.@."
    (List.length found_rand) flowlabel_found

(* Refining the spec (dropping the /proc over-approximation) removes the
   crypto/slabinfo FP classes, at no cost in bugs found. *)
let print_spec_ablation () =
  Fmt.pr "-- Ablation: refined specification (drops Procfs_misc) --@.";
  let run spec =
    let options =
      { Campaign.default_options with Campaign.corpus_size; spec }
    in
    Campaign.run options
  in
  let describe label c =
    let found = Oracle.new_bugs_found c.Campaign.keyed in
    let fps =
      List.length
        (List.filter
           (fun k ->
             match Oracle.attribute_keyed k with
             | Oracle.False_positive _ | Oracle.Under_investigation -> true
             | Oracle.Bug _ -> false)
           c.Campaign.keyed)
    in
    Fmt.pr "%s: %d/9 bugs, %d reports, %d FP/UI reports@." label
      (List.length found)
      (List.length c.Campaign.reports)
      fps
  in
  describe "default spec" (run Spec.default);
  describe "refined spec" (run Spec.refined);
  Fmt.pr "@."

(* The time namespace is invisible to the standard pipeline but caught
   by the bounds-based detector (paper, section 7 / DESIGN.md E7+). *)
let print_bounds_ablation () =
  Fmt.pr "-- Ablation: time namespace via bounds-based detection (sec. 7) --@.";
  let env = Env.create (Config.v5_13 ()) in
  let runner = Runner.create env in
  let sender = Syzlang.parse "r0 = clock_settime(5)" in
  let receiver = Syzlang.parse "r0 = clock_gettime()" in
  let outcome = Runner.execute runner ~sender ~receiver in
  let violations = Runner.execute_bounds runner ~sender ~receiver in
  Fmt.pr
    "standard pipeline: %d masked divergences (missed); bounds mode: %d violations (caught)@.@."
    (List.length outcome.Runner.masked_diffs)
    (List.length violations)

(* Supervised execution must cost almost nothing when no faults are
   armed: the acceptance bar is within 10% of the raw runner's
   executions/sec with an empty schedule. Also demonstrates recovery
   cost under a seeded transient-fault schedule. *)
let print_supervision_overhead () =
  Fmt.pr "-- Supervision overhead (acceptance: <10%% with empty schedule) --@.";
  let config = Config.v5_13 () in
  let sender = Syzlang.parse "r0 = socket(3)" in
  let receiver = Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  let iters = getenv_int "KIT_BENCH_SUP_ITERS" 2000 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int iters /. dt
  in
  let raw =
    let runner = Runner.create (Env.create config) in
    time (fun () ->
        for _ = 1 to iters do
          ignore (Runner.execute runner ~sender ~receiver : Runner.outcome)
        done)
  in
  let supervised =
    let sup = Supervisor.create config in
    time (fun () ->
        for _ = 1 to iters do
          ignore (Supervisor.execute sup ~sender ~receiver : Runner.status)
        done)
  in
  let overhead = (raw -. supervised) /. raw *. 100.0 in
  Fmt.pr "raw runner:  %10.0f executions/s@." raw;
  Fmt.pr "supervised:  %10.0f executions/s (overhead %.1f%%)@." supervised
    overhead;
  let faulted =
    let fault =
      Fault.of_schedule (Fault.schedule_of_seed ~seed:7 ~intensity:8)
    in
    let sup = Supervisor.create ~fault config in
    time (fun () ->
        for _ = 1 to iters do
          ignore (Supervisor.execute sup ~sender ~receiver : Runner.status)
        done)
  in
  Fmt.pr "with 8 seeded transient faults: %10.0f executions/s@.@." faulted

(* Observability must be pay-for-what-you-use: a disabled (nop) bundle
   leaves the supervised path within noise of no instrumentation at
   all, and full recording — metrics + spans + the global per-sysno
   dispatch counters — stays cheap enough for month-long campaigns.
   Acceptance: nop-bundle overhead within noise (<10%). *)
let print_observability_overhead () =
  Fmt.pr "-- Observability overhead (off vs metrics-only vs full) --@.";
  let config = Config.v5_13 () in
  let sender = Syzlang.parse "r0 = socket(3)" in
  let receiver = Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  let iters = getenv_int "KIT_BENCH_OBS_ITERS" 2000 in
  let time obs =
    let sup = match obs with
      | None -> Supervisor.create config
      | Some obs -> Supervisor.create ~obs config
    in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Supervisor.execute sup ~sender ~receiver : Runner.status)
    done;
    float_of_int iters /. (Unix.gettimeofday () -. t0)
  in
  let off = time (Some Obs.nop) in
  let metrics_only =
    time (Some (Obs.create ~tracer:Kit_obs.Tracer.nop ()))
  in
  Kit_obs.Metrics.set_enabled Kit_obs.Metrics.default true;
  let full = time (Some (Obs.create ())) in
  Kit_obs.Metrics.set_enabled Kit_obs.Metrics.default false;
  Kit_obs.Metrics.reset Kit_obs.Metrics.default;
  let pct base v = (base -. v) /. base *. 100.0 in
  Fmt.pr "nop bundle:    %10.0f executions/s@." off;
  Fmt.pr "metrics only:  %10.0f executions/s (overhead %.1f%%)@." metrics_only
    (pct off metrics_only);
  Fmt.pr
    "full (metrics + spans + syscall counters): %10.0f executions/s (overhead %.1f%%)@.@."
    full (pct off full)

(* --- execution hot path -------------------------------------------------
   The three stacked optimisations of the execution loop, each measured
   against its off switch on the same workload:
     1. incremental snapshot restore — fraction of heap cells replayed
        vs what full restores would have replayed (acceptance: <20%);
     2. baseline-trace memoization — program executions with the cache
        on vs off (execution B collapses to one per distinct receiver);
     3. multicore domains — wall-clock of the same execute phase at
        --domains N vs sequential.
   Results accumulate into a JSON object written to $KIT_BENCH_JSON. *)

let bench_json : (string * Jsonl.t) list ref = ref []

let record key v = bench_json := (key, v) :: !bench_json

let write_bench_json () =
  match Sys.getenv_opt "KIT_BENCH_JSON" with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Jsonl.to_string (Jsonl.Obj (List.rev !bench_json)));
    output_char oc '\n';
    close_out oc;
    Fmt.pr "bench json: %s@." path

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let counter_of snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_v n) -> n
  | Some (Metrics.Gauge_v _ | Metrics.Hist_v _) | None -> 0

let print_exec_hotpath () =
  Fmt.pr "-- Execution hot path: restore / baseline cache / domains --@.";
  let corpus_size = getenv_int "KIT_BENCH_EXEC_CORPUS" 320 in
  let options = { Campaign.default_options with Campaign.corpus_size } in
  record "exec_corpus" (Jsonl.Int corpus_size);
  (* 1. incremental restore: the heap counters live on the global default
     registry, so enable it around one campaign and read them back. *)
  Metrics.reset Metrics.default;
  Metrics.set_enabled Metrics.default true;
  let c_on, on_s = timed (fun () -> Campaign.run options) in
  Metrics.set_enabled Metrics.default false;
  let snap = Metrics.snapshot Metrics.default in
  Metrics.reset Metrics.default;
  let restored = counter_of snap "heap.cells_restored" in
  let total = counter_of snap "heap.cells_total" in
  let frac = if total = 0 then 1.0 else float_of_int restored /. float_of_int total in
  Fmt.pr
    "incremental restore:  %d of %d cells replayed (%.1f%% of full; acceptance <20%%)@."
    restored total (100.0 *. frac);
  record "restore_cells_replayed" (Jsonl.Int restored);
  record "restore_cells_total" (Jsonl.Int total);
  record "restore_replay_fraction" (Jsonl.Float frac);
  (* 2. baseline-trace memoization: same campaign, cache off. *)
  let c_off, off_s =
    timed (fun () ->
        Campaign.run { options with Campaign.baseline_cache = false })
  in
  let ratio =
    if c_on.Campaign.executions = 0 then 1.0
    else
      float_of_int c_off.Campaign.executions
      /. float_of_int c_on.Campaign.executions
  in
  Fmt.pr
    "baseline cache:       %d executions vs %d without (%.2fx fewer), %.3fs vs %.3fs@."
    c_on.Campaign.executions c_off.Campaign.executions ratio on_s off_s;
  Fmt.pr "                      reports identical: %b@."
    (List.length c_on.Campaign.reports = List.length c_off.Campaign.reports);
  record "baseline_executions_on" (Jsonl.Int c_on.Campaign.executions);
  record "baseline_executions_off" (Jsonl.Int c_off.Campaign.executions);
  record "baseline_execution_ratio" (Jsonl.Float ratio);
  record "campaign_s_cache_on" (Jsonl.Float on_s);
  record "campaign_s_cache_off" (Jsonl.Float off_s);
  (* 3. multicore domains: the same execute phase, sequential vs dealt
     over a domain pool, so this is a pure wall-clock comparison. DF-IA
     clustering leaves only a few hundred representatives — far too
     little work for parallelism to matter — so this stage executes a
     RAND generation, a big flat queue, with diagnosis off. Profiling
     runs outside the timer. *)
  let cores = Domain.recommended_domain_count () in
  let domains = getenv_int "KIT_BENCH_EXEC_DOMAINS" (min 4 cores) in
  let rand_budget = getenv_int "KIT_BENCH_EXEC_CASES" (16 * corpus_size) in
  let run ~domains =
    let prepared =
      Campaign.prepare
        { options with Campaign.domains; diagnose = false }
    in
    timed (fun () ->
        Campaign.execute_prepared ~strategy:(Cluster.Rand rand_budget)
          prepared)
  in
  (* Warm one round so allocator/code paths are hot for both sides. *)
  ignore (run ~domains:1 : Campaign.t * float);
  let d1, d1_s = run ~domains:1 in
  let dn, dn_s = run ~domains in
  let speedup = if dn_s > 0.0 then d1_s /. dn_s else 1.0 in
  Fmt.pr
    "multicore domains:    %d cases: %.3fs sequential, %.3fs on %d domains (%.2fx)@."
    rand_budget d1_s dn_s domains speedup;
  if cores <= 1 then
    Fmt.pr
      "                      single-core host (%d recommended domains): a \
       wall-clock win needs real cores; this run checks overhead and \
       determinism only@."
      cores;
  Fmt.pr "                      reports identical: %b@."
    (List.length d1.Campaign.reports = List.length dn.Campaign.reports);
  record "cores" (Jsonl.Int cores);
  record "domains_n" (Jsonl.Int domains);
  record "domains_cases" (Jsonl.Int rand_budget);
  record "domains_s_domains1" (Jsonl.Float d1_s);
  record "domains_s_domainsN" (Jsonl.Float dn_s);
  record "domains_speedup" (Jsonl.Float speedup);
  let rss = Rss.peak_kb () in
  Fmt.pr "peak rss:             %d kB (VmHWM)@." rss;
  record "exec_peak_rss_kb" (Jsonl.Int rss);
  Fmt.pr "@."

(* --- streaming pipeline -------------------------------------------------
   Batch vs streaming shape of the same campaign:
     1. time-to-first-report — the batch path pays the full profile +
        cluster barrier before the first execution, the streaming path
        executes sealed representatives while the corpus is still being
        profiled (batch TTFR measured by polling chunked execution);
     2. peak materialized flows — the batch pass sweeps a df_total-sized
        cross product, the online clusterer's working set is the largest
        single feed;
     3. delta campaigns — growing a finished stream re-executes only new
        and representative-changed clusters. *)

let print_pipeline_bench () =
  Fmt.pr "-- Streaming pipeline: TTFR / working set / delta campaigns --@.";
  (* 96 keeps the cluster count below saturation (~167 for this kernel),
     so the +64 growth demonstrably creates new clusters to re-execute. *)
  let corpus_size = getenv_int "KIT_BENCH_PIPE_CORPUS" 96 in
  let add = getenv_int "KIT_BENCH_PIPE_ADD" 64 in
  let options = { Campaign.default_options with Campaign.corpus_size } in
  record "pipeline_corpus" (Jsonl.Int corpus_size);
  record "pipeline_add" (Jsonl.Int add);
  (* 1a. batch: poll chunked execution until the first report lands. *)
  let (batch, batch_ttfr), batch_s =
    timed (fun () ->
        let t0 = Unix.gettimeofday () in
        let prepared = Campaign.prepare options in
        let ttfr = ref None in
        let rec go resume =
          match Campaign.execute_partial ?resume ~budget:8 prepared with
          | `Paused ck ->
            if !ttfr = None && Campaign.checkpoint_reports ck > 0 then
              ttfr := Some (Unix.gettimeofday () -. t0);
            go (Some ck)
          | `Done t ->
            if !ttfr = None && t.Campaign.reports <> [] then
              ttfr := Some (Unix.gettimeofday () -. t0);
            (t, !ttfr)
        in
        go None)
  in
  (* 1b. streaming: the stream records its own first-report clock. *)
  let (stream, s), stream_s =
    timed (fun () ->
        let s = Campaign.stream options in
        (Campaign.stream_result s, s))
  in
  let stats = Campaign.stream_stats s in
  let pp_ttfr ppf = function
    | Some t -> Fmt.pf ppf "%.4fs" t
    | None -> Fmt.string ppf "n/a (no reports)"
  in
  Fmt.pr "time to first report: batch %a, streaming %a (totals %.3fs / %.3fs)@."
    pp_ttfr batch_ttfr pp_ttfr stats.Campaign.first_report_s batch_s stream_s;
  Fmt.pr "identical results:    reports %b, df_total %b@."
    (List.length batch.Campaign.reports = List.length stream.Campaign.reports)
    (batch.Campaign.df_total = stream.Campaign.df_total);
  (* 2. working set: batch sweeps the full cross product, streaming's
     peak is one program's worth of group pairs. *)
  Fmt.pr "materialized flows:   batch sweep %d, streaming peak feed %d@."
    batch.Campaign.df_total stats.Campaign.peak_feed_pairs;
  record "pipeline_ttfr_batch_s"
    (match batch_ttfr with Some t -> Jsonl.Float t | None -> Jsonl.Null);
  record "pipeline_ttfr_stream_s"
    (match stats.Campaign.first_report_s with
    | Some t -> Jsonl.Float t
    | None -> Jsonl.Null);
  record "pipeline_total_batch_s" (Jsonl.Float batch_s);
  record "pipeline_total_stream_s" (Jsonl.Float stream_s);
  record "pipeline_flows_batch" (Jsonl.Int batch.Campaign.df_total);
  record "pipeline_flows_stream_peak" (Jsonl.Int stats.Campaign.peak_feed_pairs);
  (* 3. delta campaign vs from-scratch on the grown corpus. *)
  let before = stats.Campaign.executed_cases in
  let (grown, scratch), _ =
    timed (fun () ->
        ( Campaign.extend s ~add,
          Campaign.run { options with Campaign.corpus_size = corpus_size + add }
        ))
  in
  let delta = (Campaign.stream_stats s).Campaign.executed_cases - before in
  let scratch_reps = List.length scratch.Campaign.generation.Cluster.reps in
  Fmt.pr
    "delta campaign:       +%d programs re-executed %d of %d representatives \
     (identical reports: %b)@."
    add delta scratch_reps
    (List.length grown.Campaign.reports = List.length scratch.Campaign.reports);
  record "pipeline_delta_executed" (Jsonl.Int delta);
  record "pipeline_scratch_executed" (Jsonl.Int scratch_reps);
  let rss = Rss.peak_kb () in
  Fmt.pr "peak rss:             %d kB (VmHWM)@." rss;
  record "pipeline_peak_rss_kb" (Jsonl.Int rss);
  Fmt.pr "@."

(* --- trace analysis -----------------------------------------------------
   The causal trace toolchain on a real campaign ring:
     1. recording overhead — the same campaign with a nop tracer vs a
        recording one (spans are stamped by Pipeline and Supervisor
        either way; only the ring writes differ);
     2. analysis cost — Spantree.build + Profile.of_tree over the full
        ring, and the k-way Tracer.interleave on per-domain ring splits;
     3. export cost/size — Chrome trace-event serialization and folded
        stacks. *)

let print_trace_bench () =
  Fmt.pr "-- Trace analysis: recording / tree build / exports --@.";
  let corpus_size = getenv_int "KIT_BENCH_TRACE_CORPUS" 160 in
  let options = { Campaign.default_options with Campaign.corpus_size } in
  record "trace_corpus" (Jsonl.Int corpus_size);
  let _, base_s =
    timed (fun () ->
        Campaign.run
          { options with
            Campaign.obs = Some (Obs.create ~tracer:Tracer.nop ()) })
  in
  let obs = Obs.create () in
  let _, traced_s =
    timed (fun () -> Campaign.run { options with Campaign.obs = Some obs })
  in
  let events = Tracer.events obs.Obs.tracer in
  let n_events = List.length events in
  let overhead =
    if base_s > 0.0 then (traced_s -. base_s) /. base_s *. 100.0 else 0.0
  in
  Fmt.pr
    "recording overhead:   %.3fs untraced, %.3fs traced (%+.1f%%), %d events (%d dropped)@."
    base_s traced_s overhead n_events
    (Tracer.dropped obs.Obs.tracer);
  record "trace_s_untraced" (Jsonl.Float base_s);
  record "trace_s_traced" (Jsonl.Float traced_s);
  record "trace_overhead_pct" (Jsonl.Float overhead);
  record "trace_events" (Jsonl.Int n_events);
  record "trace_dropped" (Jsonl.Int (Tracer.dropped obs.Obs.tracer));
  let tree, build_s =
    timed (fun () ->
        Spantree.build ~dropped:(Tracer.dropped obs.Obs.tracer) events)
  in
  let profile, profile_s = timed (fun () -> Profile.of_tree tree) in
  Fmt.pr
    "analysis:             build %.4fs (%d spans, %d lanes), profile %.4fs (%d rows)@."
    build_s tree.Spantree.spans
    (List.length tree.Spantree.lanes)
    profile_s
    (List.length profile.Profile.rows);
  record "trace_build_s" (Jsonl.Float build_s);
  record "trace_spans" (Jsonl.Int tree.Spantree.spans);
  record "trace_profile_s" (Jsonl.Float profile_s);
  (* k-way merge on an even split of the ring, the shape Campaign's
     domain join hands it. *)
  let shards = 4 in
  let rings =
    List.init shards (fun d ->
        List.filteri (fun i _ -> i mod shards = d) events)
  in
  let merged, merge_s = timed (fun () -> Tracer.interleave rings) in
  Fmt.pr "interleave:           %d rings of ~%d events in %.4fs@." shards
    (n_events / max 1 shards) merge_s;
  record "trace_interleave_s" (Jsonl.Float merge_s);
  assert (List.length merged = n_events);
  let chrome, chrome_s =
    timed (fun () -> Jsonl.to_string (Spantree.to_chrome tree))
  in
  let folded, folded_s = timed (fun () -> Profile.folded tree) in
  Fmt.pr
    "exports:              chrome %d bytes in %.4fs, %d folded stacks in %.4fs@.@."
    (String.length chrome) chrome_s (List.length folded) folded_s;
  record "trace_chrome_bytes" (Jsonl.Int (String.length chrome));
  record "trace_chrome_s" (Jsonl.Float chrome_s);
  record "trace_folded_lines" (Jsonl.Int (List.length folded));
  record "trace_folded_s" (Jsonl.Float folded_s)

(* --- bechamel micro/macro benchmarks ------------------------------------ *)

let bench_corpus = 48

let make_benchmarks () =
  (* Shared fixtures, built once outside the timed closures. *)
  let options =
    { Campaign.default_options with Campaign.corpus_size = bench_corpus }
  in
  let prepared = Campaign.prepare options in
  let config = Config.v5_13 () in
  let profiler = Collect.create config in
  let prog = Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  let sender = Syzlang.parse "r0 = socket(3)" in
  let env = Env.create config in
  let kernel = State.boot config in
  let snap = State.snapshot kernel in
  let corpus_list = Corpus.generate ~seed:7 ~size:bench_corpus in
  let profiles = Dataflow.profile_corpus config Spec.default corpus_list in
  let map = Dataflow.build_map profiles in
  let runner = Runner.create env in
  let outcome = Runner.execute runner ~sender ~receiver:prog in
  [
    (* one Test.make per paper table *)
    Test.make ~name:"table2/5/6: campaign (DF-IA)"
      (Staged.stage (fun () ->
           ignore (Campaign.execute_prepared prepared : Campaign.t)));
    Test.make ~name:"table3: known-bug reproduction"
      (Staged.stage (fun () ->
           ignore (Known_bugs.reproduce_all () : Known_bugs.outcome list)));
    Test.make ~name:"table4: clustering DF-IA"
      (Staged.stage (fun () ->
           ignore
             (Cluster.run Cluster.Df_ia ~corpus_size:bench_corpus map
               : Cluster.result)));
    Test.make ~name:"table4: clustering DF-ST-2"
      (Staged.stage (fun () ->
           ignore
             (Cluster.run (Cluster.Df_st 2) ~corpus_size:bench_corpus map
               : Cluster.result)));
    (* pipeline-stage micro-benchmarks (section 6.5) *)
    Test.make ~name:"profile: one test program"
      (Staged.stage (fun () ->
           ignore
             (Collect.profile profiler ~role:Collect.Receiver prog
               : Collect.profile)));
    Test.make ~name:"execute: one test case (A+B)"
      (Staged.stage (fun () ->
           ignore (Runner.execute runner ~sender ~receiver:prog : Runner.outcome)));
    (let sup = Supervisor.create config in
     Test.make ~name:"execute: supervised, inert fault plane"
       (Staged.stage (fun () ->
            ignore (Supervisor.execute sup ~sender ~receiver:prog : Runner.status))));
    Test.make ~name:"kernel: snapshot restore"
      (Staged.stage (fun () -> State.restore kernel snap));
    Test.make ~name:"kernel: snapshot restore (full)"
      (Staged.stage (fun () -> State.restore ~full:true kernel snap));
    Test.make ~name:"trace: AST comparison"
      (Staged.stage (fun () ->
           ignore
             (Compare.diff_trees outcome.Runner.trace_a outcome.Runner.trace_b
               : Compare.diff list)));
    Test.make ~name:"corpus: generate 48 programs"
      (Staged.stage (fun () ->
           ignore
             (Corpus.generate ~seed:7 ~size:bench_corpus
               : Kit_abi.Program.t list)));
  ]

let run_benchmarks () =
  Fmt.pr "=============================================================@.";
  Fmt.pr " Bechamel timings (quota %.2fs per test)@." quota;
  Fmt.pr "=============================================================@.";
  let tests = make_benchmarks () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second quota)
      ~kde:None ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"kit" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let pp_time ppf ns =
    if Float.is_nan ns then Fmt.string ppf "n/a"
    else if ns > 1e9 then Fmt.pf ppf "%8.3f s " (ns /. 1e9)
    else if ns > 1e6 then Fmt.pf ppf "%8.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Fmt.pf ppf "%8.3f us" (ns /. 1e3)
    else Fmt.pf ppf "%8.1f ns" ns
  in
  List.iter (fun (name, ns) -> Fmt.pr "%-42s %a@." name pp_time ns) rows

(* --- crash-isolated process pool ----------------------------------------
   What real process isolation costs over the in-process execute phase:
     1. spawn + Hello bootstrap + per-job pipe round-trips (same
        representatives, same corpus, executed on worker processes
        instead of sequentially in-process);
     2. crash recovery — a sabotaged worker SIGKILLed mid-run, its shard
        resharded over the survivors (the wall-clock price of one death
        on the same workload). Reports must be identical in all three
        schedules. *)

let print_pool_bench () =
  Fmt.pr "-- Crash-isolated pool: processes vs sequential in-process --@.";
  let corpus_size = getenv_int "KIT_BENCH_POOL_CORPUS" 96 in
  let procs = getenv_int "KIT_BENCH_POOL_PROCS" 4 in
  let options =
    { Campaign.default_options with Campaign.corpus_size; diagnose = false }
  in
  record "pool_corpus" (Jsonl.Int corpus_size);
  record "pool_procs" (Jsonl.Int procs);
  let prepared = Campaign.prepare options in
  let corpus = Campaign.prepared_corpus prepared
  and generation = Campaign.generate_prepared prepared in
  let cases = List.length generation.Cluster.reps in
  (* The sequential campaign's generate + execute phases. *)
  let in_process () = Campaign.execute_prepared prepared in
  let pool ~sabotage () =
    Pool.execute
      { Pool.default_config with Pool.procs; sabotage }
      options corpus generation
  in
  (* Warm both paths once so allocator and code paths are hot. *)
  ignore (in_process () : Campaign.t);
  ignore (pool ~sabotage:Pool.no_sabotage () : Pool.outcome);
  let d, d_s = timed in_process in
  let p, p_s = timed (fun () -> pool ~sabotage:Pool.no_sabotage ()) in
  let kill = { Pool.no_sabotage with Pool.kill_after = [ (0, 2) ] } in
  let pk, pk_s = timed (fun () -> pool ~sabotage:kill ()) in
  let per_case = if cases > 0 then (p_s -. d_s) /. float_of_int cases else 0.0 in
  Fmt.pr "sequential:           %d cases: %.3fs@." cases d_s;
  Fmt.pr
    "process pool:         %d procs,   %d cases: %.3fs (%.1f us/case \
     isolation overhead)@."
    procs cases p_s (per_case *. 1e6);
  Fmt.pr
    "pool + 1 SIGKILL:     %.3fs (%d resharded, %d respawns; recovery cost \
     %.3fs)@."
    pk_s pk.Pool.stats.Pool.resharded pk.Pool.stats.Pool.respawns
    (pk_s -. p_s);
  Fmt.pr "                      reports identical: %b@."
    (List.length d.Campaign.reports
     = List.length
         (List.filter_map
            (fun r -> r.Campaign.cr_report)
            p.Pool.results)
     && List.length d.Campaign.reports
        = List.length
            (List.filter_map
               (fun r -> r.Campaign.cr_report)
               pk.Pool.results));
  record "pool_cases" (Jsonl.Int cases);
  record "pool_s_sequential" (Jsonl.Float d_s);
  record "pool_s_procs" (Jsonl.Float p_s);
  record "pool_overhead_us_per_case" (Jsonl.Float (per_case *. 1e6));
  record "pool_s_procs_sigkill" (Jsonl.Float pk_s);
  record "pool_sigkill_resharded" (Jsonl.Int pk.Pool.stats.Pool.resharded);
  Fmt.pr "@."

(* --- multi-tenant serve scheduler ---------------------------------------
   What the [kit serve] scheduler costs over driving the bare pool:
     1. scheduling overhead — the same two campaigns end to end (prepare,
        generate, execute), back to back on bare pools vs submitted
        together and drained through Sched. The baseline pays two pool
        spawns where the scheduler shares one — amortizing spawn across
        tenants is part of what serve buys — so the per-case delta is
        pure DRR/bookkeeping cost minus that saving;
     2. fairness — with 3:1 weights the heavy tenant's share of
        contended dispatches should sit at 0.75 (CI accepts +-10%);
     3. work stealing — dispatches that spent another tenant's stranded
        credit rather than idling a worker slot. *)

let print_serve_bench () =
  Fmt.pr "-- Multi-tenant serve: scheduler overhead / fairness / steals --@.";
  let corpus_size = getenv_int "KIT_BENCH_SERVE_CORPUS" 96 in
  let procs = getenv_int "KIT_BENCH_SERVE_PROCS" 4 in
  record "serve_corpus" (Jsonl.Int corpus_size);
  record "serve_procs" (Jsonl.Int procs);
  let spec name seed weight =
    { Proto.default_spec with
      Proto.sp_name = name;
      sp_seed = seed;
      sp_corpus_size = corpus_size;
      sp_weight = weight;
      sp_diagnose = false }
  in
  let specs = [ spec "heavy" 11 3; spec "light" 7 1 ] in
  let pool_cfg = { Pool.default_config with Pool.procs } in
  let run_bare sp =
    let options = Proto.options_of_spec sp in
    let prepared = Campaign.prepare options in
    let generation = Campaign.generate_prepared prepared in
    let o =
      Pool.execute pool_cfg options
        (Campaign.prepared_corpus prepared)
        generation
    in
    List.length o.Pool.results
  in
  let run_sched () =
    let cfg =
      { Sched.default_config with Sched.sc_pool = pool_cfg; sc_max_active = 2 }
    in
    let s = Sched.create cfg in
    Fun.protect ~finally:(fun () -> Sched.shutdown s) @@ fun () ->
    List.iter
      (fun sp ->
        match Sched.request s (Proto.Submit sp) with
        | Proto.Accepted _ -> ()
        | _ -> failwith "serve bench: submit rejected")
      specs;
    Sched.drain s;
    List.map Tenant.status (Sched.tenants s)
  in
  (* Warm both paths once so allocator and code paths are hot. *)
  ignore (run_bare (List.hd specs) : int);
  ignore (run_sched () : Proto.tenant_status list);
  let cases_per_spec, pool_s =
    timed (fun () -> List.map run_bare specs)
  in
  let cases = List.fold_left ( + ) 0 cases_per_spec in
  let statuses, sched_s = timed run_sched in
  let per_case =
    if cases > 0 then (sched_s -. pool_s) /. float_of_int cases else 0.0
  in
  Fmt.pr "bare pool x%d:        %d cases total: %.3fs (two pool spawns)@."
    (List.length specs) cases pool_s;
  Fmt.pr
    "sched, shared pool:   %d cases total: %.3fs (%+.1f us/case scheduler \
     overhead)@."
    cases sched_s (per_case *. 1e6);
  let dispatched =
    List.fold_left (fun a st -> a + st.Proto.ts_dispatched) 0 statuses
  and contended =
    List.fold_left (fun a st -> a + st.Proto.ts_contended) 0 statuses
  and steals =
    List.fold_left (fun a st -> a + st.Proto.ts_steals) 0 statuses
  in
  let heavy_contended =
    match List.find_opt (fun st -> st.Proto.ts_name = "heavy") statuses with
    | Some st -> st.Proto.ts_contended
    | None -> 0
  in
  let heavy_share =
    if contended > 0 then
      float_of_int heavy_contended /. float_of_int contended
    else 0.75
  in
  let fairness_err = Float.abs (heavy_share -. 0.75) in
  let steal_rate =
    if dispatched > 0 then float_of_int steals /. float_of_int dispatched
    else 0.0
  in
  Fmt.pr
    "fairness (3:1):       heavy share %.3f of %d contended dispatches \
     (target 0.750, err %.3f)@."
    heavy_share contended fairness_err;
  Fmt.pr "work stealing:        %d of %d dispatches stolen (%.1f%%)@." steals
    dispatched (100.0 *. steal_rate);
  Fmt.pr "                      every tenant finished with reports: %b@."
    (List.for_all
       (fun st -> st.Proto.ts_state = "finished" && st.Proto.ts_reports >= 0)
       statuses);
  record "serve_cases" (Jsonl.Int cases);
  record "serve_s_pool" (Jsonl.Float pool_s);
  record "serve_s_sched" (Jsonl.Float sched_s);
  record "serve_overhead_us_per_case" (Jsonl.Float (per_case *. 1e6));
  record "serve_dispatched" (Jsonl.Int dispatched);
  record "serve_steals" (Jsonl.Int steals);
  record "serve_steal_rate" (Jsonl.Float steal_rate);
  record "serve_fairness_err" (Jsonl.Float fairness_err);
  Fmt.pr "@."

(* --- compact representations -------------------------------------------
   The packed hot-path representations against the naive baselines they
   replaced, as ops/sec on the same inputs:
     1. trace compare — diff_trees with the content-hash short-circuit
        vs a structural walk without it, on two structurally identical
        traces (the overwhelmingly common case: run A agrees with run B);
     2. flow intersection — Bitset address universes vs Set.Make(Int)
        for writer/reader overlap counting;
     3. fingerprints — the streaming FNV cache key vs MD5 of the
        marshalled testcase, on real DF representatives. *)

module IntSet = Set.Make (Int)

(* The pre-FNV cache key, kept as the fingerprint baseline: MD5 of the
   marshalled testcase. *)
let md5_fingerprint tc =
  Digest.string (Marshal.to_string tc [ Marshal.No_sharing ])

(* The pre-packing diff walk: Algorithm 1 with no hash and no physical
   equality, exactly what diff_trees cost before the short-circuit. *)
let naive_diff_count ta tb =
  let rec cmp (ta : Ast.t) (tb : Ast.t) acc =
    if not (ta.Ast.det && tb.Ast.det) then acc
    else if
      (not (String.equal ta.Ast.value tb.Ast.value))
      || List.length ta.Ast.children <> List.length tb.Ast.children
    then acc + 1
    else List.fold_left2 (fun acc ca cb -> cmp ca cb acc) acc
        ta.Ast.children tb.Ast.children
  in
  cmp ta tb 0

let ops_per_sec iters f =
  ignore (f ());
  let _, s = timed (fun () -> for _ = 1 to iters do ignore (f ()) done) in
  if s > 0.0 then float_of_int iters /. s else float_of_int iters

let print_repr_bench () =
  Fmt.pr "-- Compact representations: compare / intersect / fingerprint --@.";
  (* 1. trace compare: two separately built, structurally equal traces
     of a realistic shape (64 calls x 8 result fields, ~580 nodes). *)
  let mk_trace () =
    let lines =
      List.init 64 (fun i ->
          let args =
            List.init 8 (fun j ->
                Ast.leaf (Printf.sprintf "arg%d" j)
                  (string_of_int ((i * 8) + j)))
          in
          Ast.node (Printf.sprintf "call%d:open" i) args)
    in
    Ast.node "trace" lines
  in
  let ta = mk_trace () and tb = mk_trace () in
  assert (List.length (Compare.diff_trees ta tb) = naive_diff_count ta tb);
  let iters = getenv_int "KIT_BENCH_REPR_ITERS" 20_000 in
  let packed_ops =
    ops_per_sec iters (fun () -> Compare.diff_trees ta tb)
  in
  let naive_ops = ops_per_sec iters (fun () -> naive_diff_count ta tb) in
  let cmp_speedup = packed_ops /. naive_ops in
  Fmt.pr
    "trace compare:        %.0f ops/s packed vs %.0f ops/s naive on %d \
     nodes (%.1fx)@."
    packed_ops naive_ops (Ast.size ta) cmp_speedup;
  record "repr_compare_packed_ops" (Jsonl.Float packed_ops);
  record "repr_compare_naive_ops" (Jsonl.Float naive_ops);
  record "repr_compare_speedup" (Jsonl.Float cmp_speedup);
  (* 2. flow intersection: writer/reader address universes the size a
     few-hundred-program corpus produces, counted per overlap query. *)
  let wmembers = List.init 4096 (fun i -> 0x1000 + (3 * i))
  and rmembers = List.init 4096 (fun i -> 0x1000 + (5 * i)) in
  let wbits = Bitset.create 0x8000 and rbits = Bitset.create 0x8000 in
  List.iter (Bitset.add wbits) wmembers;
  List.iter (Bitset.add rbits) rmembers;
  let wset = IntSet.of_list wmembers and rset = IntSet.of_list rmembers in
  assert (Bitset.inter_count wbits rbits
          = IntSet.cardinal (IntSet.inter wset rset));
  let bits_ops =
    ops_per_sec iters (fun () -> Bitset.inter_count wbits rbits)
  in
  let set_ops =
    ops_per_sec iters (fun () -> IntSet.cardinal (IntSet.inter wset rset))
  in
  let flow_speedup = bits_ops /. set_ops in
  Fmt.pr
    "flow intersection:    %.0f ops/s bitset vs %.0f ops/s int set on \
     2x%d addresses (%.1fx)@."
    bits_ops set_ops (List.length wmembers) flow_speedup;
  record "repr_flow_packed_ops" (Jsonl.Float bits_ops);
  record "repr_flow_naive_ops" (Jsonl.Float set_ops);
  record "repr_flow_speedup" (Jsonl.Float flow_speedup);
  (* 3. fingerprints on the DF representatives of a real corpus. *)
  let corpus_size = getenv_int "KIT_BENCH_REPR_CORPUS" 96 in
  let options = { Campaign.default_options with Campaign.corpus_size } in
  let generation = Campaign.generate_prepared (Campaign.prepare options) in
  let reps = Array.of_list generation.Cluster.reps in
  let nreps = Array.length reps in
  let fp_iters = max 1 (iters / max 1 nreps) in
  let fnv_ops =
    ops_per_sec fp_iters (fun () ->
        Array.iter (fun tc -> ignore (Tenant.fingerprint tc)) reps)
  in
  let md5_ops =
    ops_per_sec fp_iters (fun () ->
        Array.iter (fun tc -> ignore (md5_fingerprint tc)) reps)
  in
  let fp_speedup = fnv_ops /. md5_ops in
  Fmt.pr
    "fingerprint:          %.0f sweeps/s fnv vs %.0f sweeps/s md5+marshal \
     over %d representatives (%.1fx)@."
    fnv_ops md5_ops nreps fp_speedup;
  record "repr_fp_reps" (Jsonl.Int nreps);
  record "repr_fp_fnv_ops" (Jsonl.Float fnv_ops);
  record "repr_fp_md5_ops" (Jsonl.Float md5_ops);
  record "repr_fp_speedup" (Jsonl.Float fp_speedup);
  let rss = Rss.peak_kb () in
  Fmt.pr "peak rss:             %d kB (VmHWM)@." rss;
  record "repr_peak_rss_kb" (Jsonl.Int rss);
  Fmt.pr "@."

(* -- interleaved schedule search ------------------------------------------ *)

(* The scheduler section (KIT_BENCH_ONLY_SCHED): what deterministic
   interleaving costs and what POR saves.
     1. per-execution overhead — run_interleaved under the Sequential
        schedule vs run_pair over the same case (effect-handler tax);
     2. a full campaign on the race-window kernel with --schedules N vs
        the same campaign sequential-only: POR prune ratio, schedule
        executions per second, and the race-window bugs witnessed. *)
let print_sched_bench () =
  Fmt.pr "-- Interleaved schedule search: overhead / POR / discovery --@.";
  let corpus_size = getenv_int "KIT_BENCH_SCHED_CORPUS" 96 in
  let schedules = getenv_int "KIT_BENCH_SCHED_N" 128 in
  let iters = getenv_int "KIT_BENCH_SCHED_ITERS" 400 in
  record "sched_corpus" (Jsonl.Int corpus_size);
  record "sched_n" (Jsonl.Int schedules);
  (* 1. effect-handler tax on the sequential schedule *)
  let env = Env.create (Config.v5_13_rw ()) in
  let runner = Runner.create env in
  let sender = Syzlang.parse "r0 = socket(1)\nr1 = get_cookie(r0)" in
  let receiver =
    Syzlang.parse "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)"
  in
  let time_loop f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    Unix.gettimeofday () -. t0
  in
  let pair_s =
    time_loop (fun () ->
        ignore (Runner.run_pair runner ~base:env.Env.base0 sender receiver))
  in
  let inter_s =
    time_loop (fun () ->
        ignore
          (Runner.run_interleaved runner ~schedule:Kit_kernel.Sched.Sequential
             ~base:env.Env.base0 sender receiver))
  in
  let tax = inter_s /. pair_s in
  Fmt.pr
    "interleave overhead:  %.1f us/exec plain vs %.1f us/exec scheduled \
     (%.2fx, %d iters)@."
    (1e6 *. pair_s /. float_of_int iters)
    (1e6 *. inter_s /. float_of_int iters)
    tax iters;
  record "sched_s_run_pair" (Jsonl.Float pair_s);
  record "sched_s_interleaved" (Jsonl.Float inter_s);
  record "sched_overhead_ratio" (Jsonl.Float tax);
  (* 2. campaign-level search cost and yield *)
  let options =
    { Campaign.default_options with
      Campaign.config = Config.v5_13_rw ();
      corpus_size;
      seed = 3;
      diagnose = false }
  in
  let c_seq, seq_s = timed (fun () -> Campaign.run options) in
  let c_sched, sched_s =
    timed (fun () -> Campaign.run { options with Campaign.schedules })
  in
  let s = c_sched.Campaign.sched in
  let candidates = s.Campaign.sched_executed + s.Campaign.sched_pruned in
  let prune_ratio =
    if candidates = 0 then 0.0
    else float_of_int s.Campaign.sched_pruned /. float_of_int candidates
  in
  let search_s = Float.max 1e-9 (sched_s -. seq_s) in
  let sched_per_s = float_of_int s.Campaign.sched_executed /. search_s in
  let found = Oracle.race_bugs_found c_sched.Campaign.concurrent in
  Fmt.pr
    "campaign:             %.2fs sequential vs %.2fs with %d seeds/case \
     (%.1fx)@."
    seq_s sched_s schedules (sched_s /. seq_s);
  Fmt.pr
    "POR:                  %d candidate seeds, %d executed, %d pruned \
     (%.1f%% pruned)@."
    candidates s.Campaign.sched_executed s.Campaign.sched_pruned
    (100.0 *. prune_ratio);
  Fmt.pr "search throughput:    %.0f schedules/s@." sched_per_s;
  Fmt.pr "race-window bugs:     %d/%d witnessed (%s)@."
    (List.length found)
    (List.length Bugs.race_bugs)
    (String.concat ", " (List.map Bugs.to_string found));
  if c_seq.Campaign.concurrent <> [] then
    failwith "sched bench: sequential campaign produced concurrent reports";
  record "sched_campaign_s_sequential" (Jsonl.Float seq_s);
  record "sched_campaign_s_searched" (Jsonl.Float sched_s);
  record "sched_campaign_overhead" (Jsonl.Float (sched_s /. seq_s));
  record "sched_candidates" (Jsonl.Int candidates);
  record "sched_executed" (Jsonl.Int s.Campaign.sched_executed);
  record "sched_pruned" (Jsonl.Int s.Campaign.sched_pruned);
  record "sched_prune_ratio" (Jsonl.Float prune_ratio);
  record "sched_schedules_per_s" (Jsonl.Float sched_per_s);
  record "sched_concurrent_reports"
    (Jsonl.Int (List.length c_sched.Campaign.concurrent));
  record "sched_race_bugs_found" (Jsonl.Int (List.length found));
  record "sched_race_bugs_total" (Jsonl.Int (List.length Bugs.race_bugs));
  let rss = Rss.peak_kb () in
  Fmt.pr "peak rss:             %d kB (VmHWM)@." rss;
  record "sched_peak_rss_kb" (Jsonl.Int rss);
  Fmt.pr "@."

(* Coverage ledger: marking overhead on the execution hot path must be
   noise (the ledger is always on), and the campaign-level summary must
   land balanced. The marking pass is measured in isolation over the
   corpus's real access stream — the same stream the campaign feeds the
   ledger — and compared to the campaign's own wall time. *)
let print_cov_bench () =
  Fmt.pr "-- Coverage ledger: marking overhead / gap census --@.";
  let corpus_size = getenv_int "KIT_BENCH_COV_CORPUS" 96 in
  let iters = getenv_int "KIT_BENCH_COV_ITERS" 50 in
  record "cov_corpus" (Jsonl.Int corpus_size);
  let options =
    { Campaign.default_options with
      Campaign.corpus_size; seed = 7; diagnose = false }
  in
  let c, campaign_s = timed (fun () -> Campaign.run options) in
  let s = Coverage.summary c.Campaign.coverage in
  if not (Campaign.attrition_balanced c.Campaign.attrition) then
    failwith "cov bench: attrition does not balance";
  (* Isolated marking pass over the same access stream. *)
  let spec = options.Campaign.spec in
  let corpus = Corpus.generate ~seed:options.Campaign.seed ~size:corpus_size in
  let profiles = Dataflow.profile_corpus options.Campaign.config spec corpus in
  let map = Dataflow.build_map profiles in
  let writers = Accessmap.writer_addresses map in
  let readers = Accessmap.reader_addresses map in
  let universe =
    List.filter_map
      (fun (v : Kit_kernel.Heap.varinfo) ->
        if v.Kit_kernel.Heap.v_instrumented
           && Spec.var_protected spec v.Kit_kernel.Heap.v_name
        then Some (v.Kit_kernel.Heap.v_name, v.Kit_kernel.Heap.v_addr)
        else None)
      profiles.Dataflow.vars
  in
  let mark_pass () =
    let cov = Coverage.create universe in
    Array.iter
      (List.iter (fun (a : Stackrec.access) ->
           Coverage.mark_touched cov ~addr:a.Stackrec.addr))
      profiles.Dataflow.accesses;
    List.iter (fun addr -> Coverage.mark_written cov ~addr) writers;
    List.iter (fun addr -> Coverage.mark_read cov ~addr) readers;
    cov
  in
  let _, marks_s = timed (fun () -> for _ = 1 to iters do ignore (mark_pass ()) done) in
  let mark_s = marks_s /. float_of_int iters in
  let overhead = mark_s /. campaign_s in
  Fmt.pr "universe:             %d protected vars, %d paired, %d gaps, \
          %d attributed@."
    s.Coverage.sum_vars s.Coverage.sum_paired s.Coverage.sum_gaps
    s.Coverage.sum_attributed;
  Fmt.pr "campaign:             %.2fs (corpus %d, ledger always on)@."
    campaign_s corpus_size;
  Fmt.pr "marking pass:         %.2f ms (%d iters; %.2f%% of campaign)@."
    (1e3 *. mark_s) iters (100.0 *. overhead);
  record "cov_vars" (Jsonl.Int s.Coverage.sum_vars);
  record "cov_paired" (Jsonl.Int s.Coverage.sum_paired);
  record "cov_gaps" (Jsonl.Int s.Coverage.sum_gaps);
  record "cov_attributed" (Jsonl.Int s.Coverage.sum_attributed);
  record "cov_campaign_s" (Jsonl.Float campaign_s);
  record "cov_mark_s" (Jsonl.Float mark_s);
  record "cov_overhead_ratio" (Jsonl.Float overhead);
  record "cov_funnel_generated"
    (Jsonl.Int c.Campaign.attrition.Campaign.at_generated);
  record "cov_funnel_reported"
    (Jsonl.Int c.Campaign.attrition.Campaign.at_reported);
  let rss = Rss.peak_kb () in
  Fmt.pr "peak rss:             %d kB (VmHWM)@." rss;
  record "cov_peak_rss_kb" (Jsonl.Int rss);
  Fmt.pr "@."

(* Pool workers re-execute this binary; the trampoline must run before
   the bench dispatch below. No-op in the parent. *)
let () = Pool.worker_entry ()

let () =
  if Sys.getenv_opt "KIT_BENCH_ONLY_EXEC" <> None then begin
    print_exec_hotpath ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_PIPELINE" <> None then begin
    print_pipeline_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_TRACE" <> None then begin
    print_trace_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_POOL" <> None then begin
    print_pool_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_SERVE" <> None then begin
    print_serve_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_REPR" <> None then begin
    print_repr_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_SCHED" <> None then begin
    print_sched_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else if Sys.getenv_opt "KIT_BENCH_ONLY_COV" <> None then begin
    print_cov_bench ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
  else begin
    print_tables ();
    print_jump_label_ablation ();
    print_spec_ablation ();
    print_bounds_ablation ();
    print_supervision_overhead ();
    print_observability_overhead ();
    print_exec_hotpath ();
    print_pipeline_bench ();
    print_trace_bench ();
    print_pool_bench ();
    print_serve_bench ();
    print_repr_bench ();
    print_sched_bench ();
    print_cov_bench ();
    run_benchmarks ();
    write_bench_json ();
    Fmt.pr "done.@."
  end
