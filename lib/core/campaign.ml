(* The end-to-end KIT pipeline (paper, Figure 3): corpus → profiling →
   data-flow test case generation and clustering → two-phase execution →
   divergence detection and filtering → diagnosis (Algorithm 2) → report
   aggregation. Fully deterministic for a given seed.

   Execution runs under the supervised runtime (Exec.Supervisor): test
   cases that panic or hang the kernel are retried with backoff and
   quarantined as crash reports once the retry budget is spent. With a
   case-result log ([log], kept on disk by Caselog) an interrupted
   campaign resumes without re-executing completed clusters.

   The pipeline comes in two shapes built from the same Pipeline stages
   and the same per-case executor:

   - the batch path ([execute]): profile everything, cluster in one
     shot, replay what the log holds, then hand every other
     representative to an executor — in process (sequential or over
     domains) or the process pool;
   - the streaming path ([stream]/[extend]): profile one program at a
     time, fold it into the online cluster table, and execute
     newly-sealed representatives immediately; [extend] grows the corpus
     of a finished streaming campaign and re-executes only clusters
     whose representative changed.

   The two paths produce structurally identical reports, funnel,
   quarantine and df_total (property-tested); only wall-clock shape and
   execution counts differ. *)

module Program = Kit_abi.Program
module Corpus = Kit_abi.Corpus
module Config = Kit_kernel.Config
module Fault = Kit_kernel.Fault
module Spec = Kit_spec.Spec
module Dataflow = Kit_gen.Dataflow
module Cluster = Kit_gen.Cluster
module Testcase = Kit_gen.Testcase
module Runner = Kit_exec.Runner
module Supervisor = Kit_exec.Supervisor
module Filter = Kit_detect.Filter
module Report = Kit_detect.Report
module Diagnose = Kit_report.Diagnose
module Aggregate = Kit_report.Aggregate
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer
module Coverage = Kit_obs.Coverage
module Heap = Kit_kernel.Heap
module Kevent = Kit_kernel.Kevent
module Stackrec = Kit_profile.Stackrec
module Accessmap = Kit_profile.Accessmap

type options = {
  config : Config.t;
  spec : Spec.t;
  corpus_size : int;
  seed : int;
  strategy : Cluster.strategy;
  reruns : int;
  diagnose : bool;
  faults : Fault.schedule;              (* injected fault schedule *)
  fuel : int;                           (* per-execution step budget *)
  max_retries : int;                    (* supervisor retry budget *)
  baseline_cache : bool;                (* memoize receiver-solo traces *)
  domains : int;                        (* execute-phase parallelism *)
  schedules : int;                      (* interleaved schedule seeds per
                                           case; 1 = sequential only *)
  obs : Obs.t option;                   (* observability bundle; None =
                                           private bundle per campaign *)
}

let default_options =
  {
    config = Config.v5_13 ();
    spec = Spec.default;
    corpus_size = 320;
    seed = 7;
    strategy = Cluster.Df_ia;
    reruns = 3;
    diagnose = true;
    faults = [];
    fuel = Supervisor.default_config.Supervisor.fuel;
    max_retries = Supervisor.default_config.Supervisor.max_retries;
    baseline_cache = true;
    domains = 1;
    schedules = 1;
    obs = None;
  }

(* Schedule-search accounting, accumulated across the campaign's cases
   exactly like the funnel. All zeros when [schedules = 1] — the
   sequential-only campaign never touches the scheduler. *)
type sched_stats = {
  mutable sched_candidates : int;       (* completed cases searched *)
  mutable sched_classes : int;          (* POR equivalence classes *)
  mutable sched_executed : int;         (* class representatives run *)
  mutable sched_pruned : int;           (* seeds never executed *)
  mutable sched_skipped : int;          (* searches/reps lost to crashes *)
}

let sched_create () =
  { sched_candidates = 0; sched_classes = 0; sched_executed = 0;
    sched_pruned = 0; sched_skipped = 0 }

let add_sched (into : sched_stats) (s : sched_stats) =
  into.sched_candidates <- into.sched_candidates + s.sched_candidates;
  into.sched_classes <- into.sched_classes + s.sched_classes;
  into.sched_executed <- into.sched_executed + s.sched_executed;
  into.sched_pruned <- into.sched_pruned + s.sched_pruned;
  into.sched_skipped <- into.sched_skipped + s.sched_skipped

(* Funnel attrition accounting: every generated data-flow case is
   charged to exactly one terminal stage, so the stages below always sum
   to [at_generated] — a case that disappears anywhere in the pipeline
   is visible here with its drop reason. Clustering absorption counts
   cases folded into an executed representative; the quarantine stages
   count *cases* whose execution died (the campaign quarantine list
   counts crash reports, which can exceed this when schedule search
   crashes after a completed sequential run). *)
type attrition = {
  mutable at_generated : int;           (* unclustered data-flow cases *)
  mutable at_absorbed : int;            (* clustered into a representative *)
  mutable at_quar_panic : int;          (* executed rep panicked the kernel *)
  mutable at_quar_hung : int;           (* executed rep hung forever *)
  mutable at_quar_lost : int;           (* execution environment died *)
  mutable at_no_divergence : int;       (* executed, traces identical *)
  mutable at_filtered_nondet : int;     (* dropped by the rerun filter *)
  mutable at_filtered_resource : int;   (* dropped by the resource filter *)
  mutable at_reported : int;            (* survived the whole funnel *)
}

let attrition_create () =
  { at_generated = 0; at_absorbed = 0; at_quar_panic = 0; at_quar_hung = 0;
    at_quar_lost = 0; at_no_divergence = 0; at_filtered_nondet = 0;
    at_filtered_resource = 0; at_reported = 0 }

let attrition_balanced (a : attrition) =
  a.at_generated
  = a.at_absorbed + a.at_quar_panic + a.at_quar_hung + a.at_quar_lost
    + a.at_no_divergence + a.at_filtered_nondet + a.at_filtered_resource
    + a.at_reported

type timings = {
  profile_s : float;
  generate_s : float;
  execute_s : float;
  diagnose_s : float;
}

type t = {
  options : options;
  corpus : Program.t array;
  generation : Cluster.result;
  df_total : int;                       (* unclustered data-flow count *)
  funnel : Filter.funnel;
  reports : Report.t list;
  concurrent : Report.t list;           (* schedule-search findings; kept
                                           out of the sequential funnel
                                           and Algorithm 2 diagnosis *)
  sched : sched_stats;                  (* schedule-search totals *)
  quarantined : Supervisor.crash list;  (* crash reports, oldest first *)
  keyed : Aggregate.keyed list;         (* diagnosed reports, if enabled *)
  agg_r : Aggregate.group list;
  agg_rs : Aggregate.group list;
  executions : int;
  sup_stats : Supervisor.stats;
  fault_counters : Fault.counters;
  timings : timings;
  obs : Obs.t;
  coverage : Coverage.t;                (* per-variable coverage ledger *)
  attrition : attrition;                (* funnel attrition accounting *)
}

(* Wall-clock timing: campaign phases include supervisor backoff and
   (in a real deployment) I/O waits, which CPU time would hide. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Phase wall times are written by the Pipeline stage runner as volatile
   always-on "time.<stage>_s" gauges; this helper resolves the same
   handles for thin reads (and for the streaming accumulators). *)
let time_gauge obs name =
  Metrics.gauge ~volatile:true ~always:true obs.Obs.metrics ("time." ^ name)

(* Deterministic campaign accounting (funnel stages, cluster sizes,
   report counts) mirrors into always-on "campaign.*" counters. *)
let c_counter obs name =
  Metrics.counter ~always:true obs.Obs.metrics ("campaign." ^ name)

(* Prepared inputs shared by several strategies (Table 4 runs the same
   corpus and profiles through each strategy). The unclustered data-flow
   total now rides along in Cluster.result, so prepare no longer scans
   the map a second time. *)
type prepared = {
  p_options : options;
  p_corpus : Program.t array;
  p_profiles : Dataflow.profiles;
  p_map : Kit_profile.Accessmap.t;
  p_obs : Obs.t;                        (* resolved bundle *)
  p_cov : Coverage.t;                   (* campaign coverage ledger *)
}

(* The ledger's universe: every instrumented shared variable the spec
   marks namespace-protected, in kernel boot order (deterministic for a
   config, so ledger output is byte-stable across schedules). *)
let coverage_universe spec (vars : Heap.varinfo list) =
  Coverage.create
    (List.filter_map
       (fun (v : Heap.varinfo) ->
         if v.Heap.v_instrumented && Spec.var_protected spec v.Heap.v_name then
           Some (v.Heap.v_name, v.Heap.v_addr)
         else None)
       vars)

(* Profiling-time rungs. "Touched" counts raw accesses — including
   reader accesses the spec filter drops, which is exactly the
   visibility the ledger adds over the access map. "Written"/"read"
   mirror the access map's writer/reader universes (the filter keeps
   every write and every protected read, so the batch and streaming
   paths mark identically). *)
let mark_touched_accesses cov accs =
  List.iter
    (fun (a : Stackrec.access) -> Coverage.mark_touched cov ~addr:a.Stackrec.addr)
    accs

let mark_map_rungs cov map =
  List.iter (fun addr -> Coverage.mark_written cov ~addr)
    (Accessmap.writer_addresses map);
  List.iter (fun addr -> Coverage.mark_read cov ~addr)
    (Accessmap.reader_addresses map)

(* Attribution: a report's data flow names the shared address the
   divergence was pinned to; randomly generated cases carry no flow. *)
let mark_report_attributed cov (r : Report.t) =
  match r.Report.testcase.Testcase.flow with
  | Some f -> Coverage.mark_attributed cov ~addr:f.Testcase.addr
  | None -> ()

(* -- pipeline stages ------------------------------------------------------

   The typed stages the campaign driver composes. Each [Pipeline.run]
   wraps the stage in a "phase.<name>" span, a volatile "time.<name>_s"
   gauge and an always-on "pipeline.<name>_runs" counter. *)

let profile_stage =
  Pipeline.v ~consumes:"corpus" ~produces:"profiles+accessmap" "profile"
    (fun _obs (config, spec, corpus) ->
      let profiles = Dataflow.profile_corpus config spec corpus in
      (profiles, Dataflow.build_map profiles))

let generate_stage =
  Pipeline.v ~consumes:"accessmap" ~produces:"clusters" "generate"
    (fun _obs (strategy, seed, corpus_size, map) ->
      Cluster.run strategy ~seed ~corpus_size map)

let prepare (options : options) =
  let obs = match options.obs with Some o -> o | None -> Obs.create () in
  let corpus = Corpus.generate ~seed:options.seed ~size:options.corpus_size in
  let profiles, map =
    Pipeline.run obs profile_stage (options.config, options.spec, corpus)
  in
  let cov = coverage_universe options.spec profiles.Dataflow.vars in
  Array.iter (mark_touched_accesses cov) profiles.Dataflow.accesses;
  mark_map_rungs cov map;
  { p_options = options; p_corpus = Array.of_list corpus;
    p_profiles = profiles; p_map = map; p_obs = obs; p_cov = cov }

let prepared_corpus prepared = prepared.p_corpus

(* Interference test used both for detection-time classification and for
   Algorithm 2 re-testing: masked divergence restricted to receiver calls
   that access protected resources. The supervised variant survives
   modified senders that crash the kernel. *)
let protected_interference spec sup ~sender ~receiver =
  let interfered = Supervisor.test_interference sup ~sender ~receiver in
  Filter.protected_interfered spec receiver interfered

(* -- supervised execution ------------------------------------------------ *)

let make_supervisor ~obs options =
  let cfg =
    { Supervisor.default_config with
      Supervisor.fuel = options.fuel;
      max_retries = options.max_retries }
  in
  Supervisor.create ~cfg ~reruns:options.reruns
    ~baseline_cache:options.baseline_cache
    ~fault:(Fault.of_schedule options.faults)
    ~obs options.config

(* One executed cluster representative, as a self-contained result:
   classification is order-free (the funnel only accumulates counters),
   so per-case results can be produced in any schedule — sequential,
   per-domain, or streaming — and folded back in representative order. *)
type case_result = {
  cr_tc : Testcase.t;
  cr_funnel : Filter.funnel;            (* this case's funnel increments *)
  cr_report : Report.t option;
  cr_concurrent : Report.t list;        (* schedule-search findings *)
  cr_sched : sched_stats;               (* this case's search accounting *)
  cr_crashes : Supervisor.crash list;   (* quarantined by this case *)
}

let add_funnel (into : Filter.funnel) (f : Filter.funnel) =
  into.Filter.executed <- into.Filter.executed + f.Filter.executed;
  into.Filter.initial <- into.Filter.initial + f.Filter.initial;
  into.Filter.after_nondet <- into.Filter.after_nondet + f.Filter.after_nondet;
  into.Filter.after_resource <-
    into.Filter.after_resource + f.Filter.after_resource

(* Charge one executed representative to its terminal attrition stage.
   Classification reads the case's own funnel increments, so the charge
   is schedule-free and balance holds by construction: every case lands
   in exactly one branch. A case that completed sequentially is charged
   by its sequential verdict even if schedule search crashed afterwards
   (those crashes still reach the quarantine list). *)
let charge_case (a : attrition) (r : case_result) =
  let f = r.cr_funnel in
  if Option.is_some r.cr_report then a.at_reported <- a.at_reported + 1
  else if f.Filter.executed = 0 then begin
    match r.cr_crashes with
    | { Supervisor.c_reason = Supervisor.Panicked _; _ } :: _ ->
      a.at_quar_panic <- a.at_quar_panic + 1
    | { Supervisor.c_reason = Supervisor.Hung_forever; _ } :: _ ->
      a.at_quar_hung <- a.at_quar_hung + 1
    | { Supervisor.c_reason = Supervisor.Worker_lost _; _ } :: _ | [] ->
      a.at_quar_lost <- a.at_quar_lost + 1
  end
  else if f.Filter.initial = 0 then
    a.at_no_divergence <- a.at_no_divergence + 1
  else if f.Filter.after_nondet = 0 then
    a.at_filtered_nondet <- a.at_filtered_nondet + 1
  else a.at_filtered_resource <- a.at_filtered_resource + 1

(* Everything a campaign folds in from its per-case results. Lists are
   kept newest-first while folding and reversed once, by [finish]. *)
type acc = {
  a_funnel : Filter.funnel;
  a_sched : sched_stats;
  a_attrition : attrition;              (* terminal stages; generated and
                                           absorbed are set by [finish] *)
  mutable a_rev_reports : Report.t list;
  mutable a_rev_concurrent : Report.t list;
  mutable a_rev_quarantined : Supervisor.crash list;
}

let acc_create () =
  { a_funnel = Filter.funnel_create (); a_sched = sched_create ();
    a_attrition = attrition_create (); a_rev_reports = [];
    a_rev_concurrent = []; a_rev_quarantined = [] }

(* The one per-case fold. Both paths — the execute driver and streaming
   assembly — feed their results, in representative order, through
   here. *)
let absorb ~cov acc (r : case_result) =
  add_funnel acc.a_funnel r.cr_funnel;
  add_sched acc.a_sched r.cr_sched;
  charge_case acc.a_attrition r;
  Option.iter (mark_report_attributed cov) r.cr_report;
  List.iter (mark_report_attributed cov) r.cr_concurrent;
  Option.iter (fun rep -> acc.a_rev_reports <- rep :: acc.a_rev_reports)
    r.cr_report;
  acc.a_rev_concurrent <- List.rev_append r.cr_concurrent acc.a_rev_concurrent;
  acc.a_rev_quarantined <- List.rev_append r.cr_crashes acc.a_rev_quarantined

(* Execute one cluster representative under supervision; quarantined
   crashers are captured by quarantine-count delta and produce no
   report. [attrs] are correlation attributes ([case], [cluster],
   [domain]) stamped on the execution's trace events, so the
   reconstructed span tree can join each execution to its test case no
   matter which schedule ran it. *)
let exec_case ?(attrs = []) options corpus sup (tc : Testcase.t) =
  let sender = corpus.(tc.Testcase.sender) in
  let receiver = corpus.(tc.Testcase.receiver) in
  let funnel = Filter.funnel_create () in
  let sched = sched_create () in
  let q0 = Supervisor.quarantine_count sup in
  let report, concurrent =
    match Supervisor.execute ~attrs sup ~sender ~receiver with
    | Runner.Crashed _ | Runner.Hung -> (None, [])
    | Runner.Completed outcome ->
      let report =
        match
          Filter.classify options.spec ~testcase:tc ~sender ~receiver outcome
            funnel
        with
        | Filter.Reported r -> Some r
        | Filter.No_divergence | Filter.Filtered_nondet
        | Filter.Filtered_resource ->
          None
      in
      (* Schedule search runs whatever the sequential verdict was: a
         race-window bug is sequentially invisible (No_divergence), so
         gating on a sequential report would miss exactly the findings
         the search exists for. *)
      let concurrent =
        if options.schedules <= 1 then []
        else begin
          let search =
            Supervisor.search_schedules ~attrs sup
              ~schedules:options.schedules ~sender ~receiver outcome
          in
          sched.sched_candidates <- sched.sched_candidates + 1;
          sched.sched_classes <- sched.sched_classes + search.Runner.sr_classes;
          sched.sched_executed <-
            sched.sched_executed + search.Runner.sr_executed;
          sched.sched_pruned <- sched.sched_pruned + search.Runner.sr_pruned;
          sched.sched_skipped <- sched.sched_skipped + search.Runner.sr_skipped;
          List.filter_map
            (Filter.classify_concurrent options.spec ~testcase:tc ~sender
               ~receiver ~trace_b:outcome.Runner.trace_b)
            search.Runner.sr_findings
        end
      in
      (report, concurrent)
  in
  let crashes = Supervisor.quarantined_since sup q0 in
  { cr_tc = tc; cr_funnel = funnel; cr_report = report;
    cr_concurrent = concurrent; cr_sched = sched; cr_crashes = crashes }

(* A case that never produced an outcome because the execution
   environment itself died under it (permanent boot fault, lost worker
   process): a quarantined crash report, same shape as a supervised
   quarantine. *)
let lost_case_result ?(attempts = 0) corpus ~why (tc : Testcase.t) =
  let crash =
    { Supervisor.c_sender = corpus.(tc.Testcase.sender);
      c_receiver = corpus.(tc.Testcase.receiver);
      c_reason = Supervisor.Worker_lost why;
      c_attempts = attempts }
  in
  { cr_tc = tc; cr_funnel = Filter.funnel_create (); cr_report = None;
    cr_concurrent = []; cr_sched = sched_create (); cr_crashes = [ crash ] }

(* Run a chunk of [(case, tc)] pairs sequentially, absorbing
   [Supervisor.Gave_up] at the chunk boundary: a permanent
   infrastructure fault quarantines the faulting case (one attempt) and
   the rest of the chunk (zero attempts) as [Worker_lost] crash reports
   instead of aborting the campaign. Calls [emit case result executions]
   in input order as each case finishes, [executions] being what the
   case cost on [sup]. *)
let exec_cases_absorbing ~attrs ~emit options corpus sup cases =
  let rec go = function
    | [] -> ()
    | (case, tc) :: rest -> (
      let e0 = Supervisor.executions sup in
      match exec_case ~attrs:(attrs case) options corpus sup tc with
      | r ->
        emit case r (Supervisor.executions sup - e0);
        go rest
      | exception Supervisor.Gave_up why ->
        emit case
          (lost_case_result ~attempts:1 corpus ~why tc)
          (Supervisor.executions sup - e0);
        List.iter
          (fun (case, tc) -> emit case (lost_case_result corpus ~why tc) 0)
          rest)
  in
  go cases

(* The one chunk runner behind every in-process path. The chunk's
   representatives arrive as [(case, tc)] pairs ([case] a globally
   increasing index; [attrs case] its correlation attributes, built as
   the case runs) and run sequentially on [sup] unless [options.domains]
   exceeds 1; then they are dealt round-robin over that many slices.
   Each domain boots its own isolated supervised environment and
   observability registry and produces per-case results, stamping its
   executions with a ["domain"] attr on top of the case attrs. The merge
   sorts by case index, so reports, funnel and quarantine come out
   structurally identical to the sequential schedule — only wall-clock
   changes. Per-domain registries are folded into [sup]'s bundle with
   [Metrics.absorb] and the per-domain trace rings with [Tracer.merge];
   the absorbed ["exec.executions"] counts are how domain executions
   reach [Supervisor.executions sup]. Emits like [exec_cases_absorbing],
   in chunk order: sequentially as each case finishes, over domains once
   every domain is joined. *)
let run_chunk ~attrs ~emit options corpus sup chunk =
  let domains = options.domains in
  if domains <= 1 then exec_cases_absorbing ~attrs ~emit options corpus sup chunk
  else begin
    let obs = sup.Supervisor.obs in
    let slices = Array.make domains [] in
    List.iteri
      (fun i case -> slices.(i mod domains) <- case :: slices.(i mod domains))
      chunk;
    let worker d slice () =
      let wobs = Obs.create () in
      let wsup = make_supervisor ~obs:wobs options in
      let dom = ("domain", string_of_int d) in
      let out = ref [] in
      exec_cases_absorbing
        ~attrs:(fun case -> dom :: attrs case)
        ~emit:(fun case r execs -> out := (case, r, execs) :: !out)
        options corpus wsup slice;
      (!out, Obs.snapshot wobs, Tracer.events wobs.Obs.tracer)
    in
    let handles =
      Array.mapi
        (fun d slice ->
          let slice = List.rev slice in
          if slice = [] then None else Some (Domain.spawn (worker d slice)))
        slices
    in
    (* Join every domain before propagating any failure, so a crashed
       domain cannot leak its siblings. *)
    let joined =
      Array.map
        (Option.map (fun h ->
             match Domain.join h with v -> Ok v | exception e -> Error e))
        handles
    in
    Array.iter
      (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
      joined;
    let results =
      Array.to_list joined
      |> List.filter_map (function
           | Some (Ok r) -> Some r
           | Some (Error _) | None -> None)
    in
    List.iter (fun (_, snap, _) -> Metrics.absorb obs.Obs.metrics snap) results;
    Tracer.merge obs.Obs.tracer (List.map (fun (_, _, events) -> events) results);
    List.concat_map (fun (out, _, _) -> out) results
    |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
    |> List.iter (fun (case, r, execs) -> emit case r execs)
  end

(* The execute phase boots one supervised environment; [run] executes
   on it, and it goes on to run diagnosis. *)
let execute_stage =
  Pipeline.v ~consumes:"clusters" ~produces:"case-results" "execute"
    (fun obs (options, run) ->
      let sup = make_supervisor ~obs options in
      (run sup, sup))

(* Algorithm 2 on one report, re-testing through [sup]. *)
let diagnose_report spec sup (r : Report.t) =
  Aggregate.key_report r
    (Diagnose.culprits
       ~test:(protected_interference spec sup)
       ~sender:r.Report.sender ~receiver:r.Report.receiver
       ~interfered:r.Report.interfered)

let diagnose_stage =
  Pipeline.v ~consumes:"reports" ~produces:"keyed-reports" "diagnose"
    (fun _obs (options, sup, reports) ->
      List.map (diagnose_report options.spec sup) reports)

(* Schedule-search counters exist only when the search actually ran:
   interning them unconditionally would perturb the golden obs export of
   sequential-only campaigns. *)
let set_sched_counters obs ~concurrent (sched : sched_stats) =
  if sched.sched_candidates > 0 || concurrent <> [] then begin
    Metrics.set_counter (c_counter obs "sched_candidates")
      sched.sched_candidates;
    Metrics.set_counter (c_counter obs "sched_classes") sched.sched_classes;
    Metrics.set_counter (c_counter obs "sched_executed") sched.sched_executed;
    Metrics.set_counter (c_counter obs "sched_pruned") sched.sched_pruned;
    Metrics.set_counter (c_counter obs "sched_skipped") sched.sched_skipped;
    Metrics.set_counter (c_counter obs "concurrent_reports")
      (List.length concurrent)
  end

(* Coverage-ledger and attrition totals mirror into always-on counters,
   so `kit stats --funnel` can render the funnel from any exported
   snapshot without the campaign value in hand. *)
let set_coverage_counters obs cov (a : attrition) =
  let s = Coverage.summary cov in
  let set name v = Metrics.set_counter (c_counter obs name) v in
  set "cov_vars" s.Coverage.sum_vars;
  set "cov_touched" s.Coverage.sum_touched;
  set "cov_written" s.Coverage.sum_written;
  set "cov_read" s.Coverage.sum_read;
  set "cov_paired" s.Coverage.sum_paired;
  set "cov_attributed" s.Coverage.sum_attributed;
  set "cov_gaps" s.Coverage.sum_gaps;
  set "attr_generated" a.at_generated;
  set "attr_absorbed" a.at_absorbed;
  set "attr_quar_panic" a.at_quar_panic;
  set "attr_quar_hung" a.at_quar_hung;
  set "attr_quar_lost" a.at_quar_lost;
  set "attr_no_divergence" a.at_no_divergence;
  set "attr_filtered_nondet" a.at_filtered_nondet;
  set "attr_filtered_resource" a.at_filtered_resource;
  set "attr_reported" a.at_reported

(* Thin reads: the gauges are the source of truth for wall times. *)
let read_timings obs =
  { profile_s = Metrics.gauge_value (time_gauge obs "profile_s");
    generate_s = Metrics.gauge_value (time_gauge obs "generate_s");
    execute_s = Metrics.gauge_value (time_gauge obs "execute_s");
    diagnose_s = Metrics.gauge_value (time_gauge obs "diagnose_s") }

(* The one place a campaign result is built. Closes the attrition
   balance, diagnoses the reports — [diagnose], by default Algorithm 2
   on [sup] as the "phase.diagnose" stage — and mirrors the final
   accounting into the always-on "campaign.*" counters. [executions]
   counts executions [sup]'s bundle never saw (replayed results, pool
   worker processes). *)
let finish ?diagnose ~options ~corpus ~obs ~cov ~sup ~executions generation
    acc =
  let options = { options with strategy = generation.Cluster.strategy } in
  let reports = List.rev acc.a_rev_reports in
  let concurrent = List.rev acc.a_rev_concurrent in
  let quarantined = List.rev acc.a_rev_quarantined in
  let keyed =
    if not options.diagnose then begin
      Metrics.set_gauge (time_gauge obs "diagnose_s") 0.0;
      []
    end
    else
      match diagnose with
      | Some f -> f reports
      | None -> Pipeline.run obs diagnose_stage (options, sup, reports)
  in
  (* diagnosis re-executed through [sup], so read the counter last *)
  let executions = executions + Supervisor.executions sup in
  let funnel = acc.a_funnel and sched = acc.a_sched in
  let attrition = acc.a_attrition in
  (* Generation totals close the attrition balance: every generated
     case either clustered into an executed representative (and was
     charged per-case by [absorb]) or was absorbed by clustering. *)
  attrition.at_generated <- generation.Cluster.generated;
  attrition.at_absorbed <-
    generation.Cluster.generated - List.length generation.Cluster.reps;
  let set name v = Metrics.set_counter (c_counter obs name) v in
  set "generated" generation.Cluster.generated;
  set "clusters" generation.Cluster.clusters;
  set "executions" executions;
  set "funnel_executed" funnel.Filter.executed;
  set "funnel_initial" funnel.Filter.initial;
  set "funnel_after_nondet" funnel.Filter.after_nondet;
  set "funnel_after_resource" funnel.Filter.after_resource;
  set "reports" (List.length reports);
  set "quarantined" (List.length quarantined);
  set_sched_counters obs ~concurrent sched;
  set_coverage_counters obs cov attrition;
  {
    options;
    corpus;
    generation;
    df_total = generation.Cluster.df_total;
    funnel;
    reports;
    concurrent;
    sched;
    quarantined;
    keyed;
    agg_r = Aggregate.agg_r keyed;
    agg_rs = Aggregate.agg_rs keyed;
    executions;
    sup_stats = sup.Supervisor.stats;
    fault_counters = Fault.counters sup.Supervisor.fault;
    timings = read_timings obs;
    obs;
    coverage = cov;
    attrition;
  }

(* The generate phase alone, on already-prepared inputs. Asynchronous
   drivers (the serve scheduler) call it to materialise a tenant's
   cluster representatives up front, execute them over any schedule,
   and only later fold the results back with {!assemble}. *)
let generate_prepared ?strategy prepared =
  let options = prepared.p_options in
  let strategy = Option.value strategy ~default:options.strategy in
  Pipeline.run prepared.p_obs generate_stage
    (strategy, options.seed, Array.length prepared.p_corpus, prepared.p_map)

(* Public alias: pool workers boot the exact environment the built-in
   paths use. *)
let supervisor = make_supervisor

(* -- the execute driver ---------------------------------------------------

   Every batch campaign runs its execute phase here. The driver replays
   the results the log already holds, hands the other representatives —
   with their global case indices, so case [i] is the same
   representative whichever process runs it — to an executor, records
   each completion as it arrives and saves the log every [log.every]
   completions, then folds every result in representative order through
   [absorb] and [finish]. Without a log nothing is replayed or recorded,
   and the in-process executor runs every representative as one chunk
   on the execute-phase supervisor. *)

type executor =
  options -> Program.t array -> Supervisor.t -> batch:int ->
  (int * Testcase.t) list -> on_done:(int -> case_result -> int -> unit) ->
  int

type log = {
  replay : int -> Testcase.t -> (case_result * int) option;
  record : Testcase.t -> case_result -> int -> unit;
  every : int;
  save : unit -> unit;
  close : unit -> unit;
}

(* The first [n] elements of [l] and the rest; [l] itself, uncopied,
   when it has no more than [n]. *)
let split_at n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  if List.compare_length_with l n <= 0 then (l, []) else go n [] l

(* [run_chunk] on [sup], [batch] cases at a time, so a log is saved
   while the campaign runs even when the chunks fan out over domains.
   Every execution reaches [sup]'s registry, so none is external. *)
let in_process options corpus sup ~batch cases ~on_done =
  let attrs case = [ ("case", string_of_int case) ] in
  let rec go cases =
    if cases <> [] then begin
      let now, later = split_at (max 1 batch) cases in
      run_chunk ~attrs ~emit:on_done options corpus sup now;
      go later
    end
  in
  go cases;
  0

let execute ?(executor = in_process) ?log prepared generation =
  let options =
    { prepared.p_options with strategy = generation.Cluster.strategy }
  in
  let reps = Array.of_list generation.Cluster.reps in
  (* Results are folded in representative order as they arrive; one
     that arrives early waits in [early] for the cases before it. *)
  let acc = acc_create () in
  let next = ref 0 and early = Hashtbl.create 16 in
  let rec arrive case r =
    if case <> !next then Hashtbl.replace early case r
    else begin
      absorb ~cov:prepared.p_cov acc r;
      incr next;
      match Hashtbl.find_opt early !next with
      | Some r ->
        Hashtbl.remove early !next;
        arrive !next r
      | None -> ()
    end
  in
  let replayed_execs = ref 0 and todo = ref [] in
  Array.iteri
    (fun i tc ->
      match Option.bind log (fun l -> l.replay i tc) with
      | Some (r, execs) ->
        arrive i r;
        replayed_execs := !replayed_execs + execs
      | None -> todo := (i, tc) :: !todo)
    reps;
  let todo = List.rev !todo in
  let unsaved = ref 0 in
  let save () =
    match log with
    | Some l when !unsaved > 0 ->
      unsaved := 0;
      l.save ()
    | Some _ | None -> ()
  in
  let on_done case r execs =
    arrive case r;
    match log with
    | None -> ()
    | Some l ->
      l.record reps.(case) r execs;
      incr unsaved;
      if !unsaved >= l.every then save ()
  in
  let run sup =
    if todo = [] then 0
    else
      executor options prepared.p_corpus sup
        ~batch:(match log with Some l -> l.every | None -> max_int)
        todo ~on_done
  in
  (* An executor that dies (a pool with every worker gone) still leaves
     its completions in the log for the next run to replay. *)
  let external_execs, sup =
    match
      Pipeline.run prepared.p_obs execute_stage
        ~attrs:
          [ ("cases", string_of_int (List.length todo));
            ("domains", string_of_int (max 1 options.domains)) ]
        (options, run)
    with
    | v ->
      save ();
      v
    | exception e ->
      save ();
      raise e
  in
  if !next < Array.length reps then
    Fmt.invalid_arg "Campaign.execute: case %d has no result" !next;
  let t =
    finish ~options ~corpus:prepared.p_corpus ~obs:prepared.p_obs
      ~cov:prepared.p_cov ~sup
      ~executions:(!replayed_execs + external_execs)
      generation acc
  in
  Option.iter (fun l -> l.close ()) log;
  t

let execute_prepared ?strategy prepared =
  execute prepared (generate_prepared ?strategy prepared)

(* Run a complete campaign with [options]. *)
let run options = execute_prepared (prepare options)

(* Every result already known — a serve tenant's, executed on the
   shared pool: the driver replays them all, executes nothing, and
   diagnoses on a fresh sequential environment. *)
let assemble prepared generation results =
  let results = Array.of_list results in
  execute
    ~log:
      { replay = (fun i _ -> Some results.(i));
        record = (fun _ _ _ -> ());
        every = max_int;
        save = ignore;
        close = ignore }
    prepared generation

(* -- streaming pipeline --------------------------------------------------

   Execute-while-generate: each program is profiled, folded into the
   online cluster table, and any newly-sealed (or representative-changed)
   cluster is executed immediately — no global clustering barrier, so the
   first report lands while most of the corpus is still unprofiled.

   Per-cluster results are cached by cluster id; the final assembly
   orders them by the batch representative order, which makes the
   streaming result structurally identical to the batch path
   (property-tested). [extend] reuses the same machinery: feeding M more
   programs emits events only for clusters whose membership created a
   new cluster or changed a representative, so only those re-execute. *)

type stream = {
  s_options : options;
  s_obs : Obs.t;
  s_profiler : Dataflow.profiler;
  s_cov : Coverage.t;                   (* coverage ledger, fed per program *)
  s_cstate : Cluster.state;
  s_sup : Supervisor.t;                 (* sequential executor + diagnosis *)
  mutable s_corpus : Program.t array;
  s_results : (Testcase.t, case_result) Jobqueue.t; (* keyed by cluster id *)
  s_keyed : (int, Aggregate.keyed) Hashtbl.t;  (* diagnosis cache *)
  s_t0 : float;
  mutable s_first_report_s : float option;
  mutable s_exec_cases : int;           (* rep executions incl. re-runs *)
  mutable s_reexecuted : int;           (* rep-change invalidations *)
  mutable s_profile_s : float;
  mutable s_generate_s : float;
  mutable s_execute_s : float;
  mutable s_diagnose_s : float;
  mutable s_stream_s : float;           (* cumulative fold wall time *)
}

type stream_stats = {
  fed : int;                            (* programs folded *)
  live_clusters : int;
  executed_cases : int;
  reexecuted : int;
  first_report_s : float option;
  peak_feed_pairs : int;
}

let stream_stats s =
  { fed = Cluster.fed s.s_cstate;
    live_clusters = List.length (Cluster.live s.s_cstate);
    executed_cases = s.s_exec_cases;
    reexecuted = s.s_reexecuted;
    first_report_s = s.s_first_report_s;
    peak_feed_pairs = Cluster.peak_feed_pairs s.s_cstate }

let s_counter s name n = Metrics.set_counter (c_counter s.s_obs name) n

(* Execute the clusters an event batch sealed or re-sealed, caching the
   per-case results by cluster id. *)
let stream_execute s (events : Cluster.event list) =
  (* The per-cluster result cache is a Jobqueue keyed by cluster id:
     sealing submits the representative, a representative change reopens
     the job (stale result discarded by [submit_as]), dropping forgets
     it, and completed executions are recorded with [complete]. *)
  let cases =
    List.filter_map
      (function
        | Cluster.Dropped id ->
          Jobqueue.drop s.s_results id;
          Hashtbl.remove s.s_keyed id;
          None
        | Cluster.Sealed (id, tc) ->
          Jobqueue.submit_as s.s_results ~id tc;
          Some (id, tc)
        | Cluster.Rep_changed (id, tc) ->
          (* Cached execution and diagnosis are for the old rep: stale. *)
          Jobqueue.submit_as s.s_results ~id tc;
          Hashtbl.remove s.s_keyed id;
          s.s_reexecuted <- s.s_reexecuted + 1;
          Some (id, tc))
      events
  in
  if cases <> [] then begin
    (* Streaming case indices are execution ordinals; the cluster id
       rides along so traces can be joined back to the cluster table. *)
    let base = s.s_exec_cases in
    let ids = Array.of_list (List.map fst cases) in
    let attrs case =
      [ ("case", string_of_int case);
        ("cluster", string_of_int ids.(case - base)) ]
    in
    let indexed = List.mapi (fun i (_, tc) -> (base + i, tc)) cases in
    let emit case r _ =
      Jobqueue.complete s.s_results ids.(case - base) r;
      if Option.is_some r.cr_report && s.s_first_report_s = None then
        s.s_first_report_s <- Some (Unix.gettimeofday () -. s.s_t0)
    in
    let (), dt =
      timed (fun () ->
          run_chunk ~attrs ~emit s.s_options s.s_corpus s.s_sup indexed)
    in
    s.s_execute_s <- s.s_execute_s +. dt;
    s.s_exec_cases <- s.s_exec_cases + List.length cases
  end

(* Profile programs [from, to_size) one at a time and fold each into the
   online cluster table, executing sealed representatives as they
   appear. One Pipeline stage run per growth step keeps the span count
   bounded while the per-phase gauges still accumulate. *)
let stream_fold_stage =
  Pipeline.v ~consumes:"corpus-suffix" ~produces:"case-results" "stream"
    (fun _obs (s, from, to_size) ->
      for prog = from to to_size - 1 do
        let (raw, accs), dt =
          timed (fun () ->
              Dataflow.profile_program_full s.s_profiler s.s_corpus.(prog))
        in
        s.s_profile_s <- s.s_profile_s +. dt;
        (* The filtered list keeps every write and every protected read,
           so marking per filtered access reaches exactly the rungs the
           batch path derives from the finished access map. *)
        mark_touched_accesses s.s_cov raw;
        List.iter
          (fun (a : Stackrec.access) ->
            match a.Stackrec.rw with
            | Kevent.Write -> Coverage.mark_written s.s_cov ~addr:a.Stackrec.addr
            | Kevent.Read -> Coverage.mark_read s.s_cov ~addr:a.Stackrec.addr)
          accs;
        let events, dt = timed (fun () -> Cluster.feed s.s_cstate ~prog accs) in
        s.s_generate_s <- s.s_generate_s +. dt;
        stream_execute s events
      done)

let stream_grow s ~to_size =
  let from = Array.length s.s_corpus in
  if to_size < from then invalid_arg "Campaign.extend: corpus cannot shrink";
  (* Corpus generation is prefix-stable: generating a larger corpus from
     the same seed extends the smaller one, so only the suffix is new. *)
  s.s_corpus <-
    Array.of_list (Corpus.generate ~seed:s.s_options.seed ~size:to_size);
  let (), dt =
    Pipeline.run_timed s.s_obs stream_fold_stage ~elapsed_base:s.s_stream_s
      ~attrs:[ ("from", string_of_int from); ("to", string_of_int to_size) ]
      (s, from, to_size)
  in
  s.s_stream_s <- s.s_stream_s +. dt;
  s_counter s "stream_fed" (Cluster.fed s.s_cstate);
  s_counter s "stream_executed" s.s_exec_cases;
  s_counter s "stream_reexecuted" s.s_reexecuted

let stream (options : options) =
  let obs = match options.obs with Some o -> o | None -> Obs.create () in
  let options = { options with obs = Some obs } in
  let profiler = Dataflow.profiler options.config options.spec in
  let s =
    { s_options = options;
      s_obs = obs;
      s_profiler = profiler;
      s_cov =
        coverage_universe options.spec (Dataflow.profiler_vars profiler);
      s_cstate = Cluster.start ~seed:options.seed options.strategy;
      s_sup = make_supervisor ~obs options;
      s_corpus = [||];
      s_results = Jobqueue.create ();
      s_keyed = Hashtbl.create 256;
      s_t0 = Unix.gettimeofday ();
      s_first_report_s = None;
      s_exec_cases = 0;
      s_reexecuted = 0;
      s_profile_s = 0.0;
      s_generate_s = 0.0;
      s_execute_s = 0.0;
      s_diagnose_s = 0.0;
      s_stream_s = 0.0 }
  in
  stream_grow s ~to_size:options.corpus_size;
  s

(* Assemble the campaign result from the per-cluster caches. Ordering:
   the batch path executes [generation.reps] in order (sorted for keyed
   strategies, draw order for RAND), so the assembly replays exactly
   that order over the cached results — reports, funnel and quarantine
   come out structurally identical to [run]. *)
let stream_result s =
  let options = s.s_options in
  let obs = s.s_obs in
  stream_execute s (Cluster.drain s.s_cstate);
  let generation = Cluster.finalize s.s_cstate in
  let live = Cluster.live s.s_cstate in
  let ordered =
    match options.strategy with
    | Cluster.Rand _ -> live            (* draw order, like the batch path *)
    | Cluster.Df | Cluster.Df_ia | Cluster.Df_st _ ->
      List.sort (fun (_, a) (_, b) -> Testcase.compare a b) live
  in
  let cases =
    List.map
      (fun (id, rep) ->
        match Jobqueue.result s.s_results id with
        | Some r -> (id, r)
        | None ->
          Fmt.invalid_arg "Campaign.stream_result: cluster %d (%a) never ran"
            id Testcase.pp rep)
      ordered
  in
  (* Attribution and attrition fold over the *final* per-cluster cache —
     never over superseded executions of replaced representatives — so
     the streaming ledger and funnel match the batch path exactly. *)
  let acc = acc_create () in
  List.iter (fun (_, r) -> absorb ~cov:s.s_cov acc r) cases;
  Metrics.set_gauge (time_gauge obs "profile_s") s.s_profile_s;
  Metrics.set_gauge (time_gauge obs "generate_s") s.s_generate_s;
  Metrics.set_gauge (time_gauge obs "execute_s") s.s_execute_s;
  (* Diagnose newly-reported clusters; unchanged clusters reuse the
     cached keyed report from a previous assembly. Walking [cases] yields
     the reports [finish] hands over, in the same order, with the
     cluster id each cache entry is keyed by. *)
  let diagnose _reports =
    let keyed, dt =
      timed (fun () ->
          List.filter_map
            (fun (id, r) ->
              Option.map
                (fun rep ->
                  match Hashtbl.find_opt s.s_keyed id with
                  | Some k -> k
                  | None ->
                    let k = diagnose_report options.spec s.s_sup rep in
                    Hashtbl.replace s.s_keyed id k;
                    k)
                r.cr_report)
            cases)
    in
    s.s_diagnose_s <- s.s_diagnose_s +. dt;
    Metrics.set_gauge (time_gauge obs "diagnose_s") s.s_diagnose_s;
    keyed
  in
  finish ~diagnose
    ~options:{ options with corpus_size = Array.length s.s_corpus }
    ~corpus:s.s_corpus ~obs ~cov:s.s_cov ~sup:s.s_sup
    ~executions:0 generation acc

let extend s ~add =
  if add < 0 then invalid_arg "Campaign.extend: add must be non-negative";
  stream_grow s ~to_size:(Array.length s.s_corpus + add);
  stream_result s
