(* The end-to-end KIT pipeline (paper, Figure 3): corpus → profiling →
   data-flow test case generation and clustering → two-phase execution →
   divergence detection and filtering → diagnosis (Algorithm 2) → report
   aggregation. Fully deterministic for a given seed.

   Execution runs under the supervised runtime (Exec.Supervisor): test
   cases that panic or hang the kernel are retried with backoff and
   quarantined as crash reports once the retry budget is spent. With a
   case-result log ([log], kept on disk by Caselog) an interrupted
   campaign resumes without re-executing completed clusters.

   The pipeline has one front end and one back end:

   - the front end ([front_fold]): profile one program at a time, mark
     the coverage ledger and fold the program into online cluster
     tables. [prepare] runs it over the whole corpus for every batch
     caller ([run], the CLI, Table 4, serve tenants); a stream
     ([stream]/[extend]) runs it too and executes newly-sealed
     representatives immediately, recording each result in a memo, and
     [extend] grows the corpus of a live stream, executing only
     clusters whose representative is new;
   - the back end, the execute driver ([start]/[todo]/[complete]/
     [finish]): replay what a log (a checkpoint, or a stream's memo)
     holds, hand every other representative to an executor — in process
     (sequential or over domains), the process pool, or a serve tenant's
     share of the shared pool — and fold every result. A case that
     reports is diagnosed (Algorithm 2) where it ran, so its culprits
     are part of the result and [finish] only folds.

   No campaign holds every profile or an access map: the front end
   keeps only the cluster tables, and a stream additionally every
   executed result. Batch and streaming campaigns build their result
   in the one driver, so both produce the same result
   (property-tested); only wall-clock shape differs. *)

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
  baseline_cache : bool;                (* memoize per-program baselines
                                           and per-pair searches *)
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
  mutable sched_executed : int;         (* class representatives whose
                                           outcome the cases carry *)
  mutable sched_pruned : int;           (* candidates - sched_executed *)
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

(* Phase wall times live in the registry as volatile (excluded from
   deterministic snapshots) and always-on "time.<name>" gauges: they are
   campaign accounting, so readers stay populated through a disabled
   bundle. *)
let time_gauge obs name =
  Metrics.gauge ~volatile:true ~always:true obs.Obs.metrics ("time." ^ name)

(* Run [f] as the campaign phase [name] ("front" or "execute"): a
   "phase.<name>" span and the "time.<name>_s" gauge, stamped from the
   same gettimeofday readings, so a profile over the trace reports
   exactly the exported gauge. [base] seeds the gauge for a phase whose
   work did not all run in this call: a stream's growth steps, or its
   eager executions. Returns [f]'s result and this call's seconds. *)
let phase ?(base = 0.0) obs name ~attrs f =
  let tracer = obs.Obs.tracer in
  let t0 = Unix.gettimeofday () in
  let sp = Tracer.span tracer ~attrs ~wall:t0 ("phase." ^ name) in
  match f () with
  | v ->
    let t1 = Unix.gettimeofday () in
    Tracer.finish tracer ~wall:t1 sp;
    Metrics.set_gauge (time_gauge obs (name ^ "_s")) (base +. (t1 -. t0));
    (v, t1 -. t0)
  | exception e ->
    Tracer.finish tracer ~wall:(Unix.gettimeofday ()) sp;
    raise e

(* Deterministic campaign accounting (funnel stages, cluster sizes,
   report counts) mirrors into always-on "campaign.*" counters. *)
let c_counter obs name =
  Metrics.counter ~always:true obs.Obs.metrics ("campaign." ^ name)

(* A campaign's inputs once the front end has run: the corpus and one
   clustering result per strategy the caller named (Table 4 and the
   jump-label ablation run several strategies over one profiling pass).
   No profile outlives the program it came from. *)
type prepared = {
  p_options : options;
  p_corpus : Program.t array;
  p_tables : Cluster.result list;       (* one per named strategy *)
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
   visibility the ledger adds over the cluster tables. "Written"/"read"
   come from the filtered accesses, which keep every write and every
   protected read: the writer and reader universes the tables see. *)
let mark_profiled cov ~raw ~filtered =
  List.iter
    (fun (a : Stackrec.access) -> Coverage.mark_touched cov ~addr:a.Stackrec.addr)
    raw;
  List.iter
    (fun (a : Stackrec.access) ->
      match a.Stackrec.rw with
      | Kevent.Write -> Coverage.mark_written cov ~addr:a.Stackrec.addr
      | Kevent.Read -> Coverage.mark_read cov ~addr:a.Stackrec.addr)
    filtered

(* Attribution: a report's data flow names the shared address the
   divergence was pinned to; randomly generated cases carry no flow. *)
let mark_report_attributed cov (r : Report.t) =
  match r.Report.testcase.Testcase.flow with
  | Some f -> Coverage.mark_attributed cov ~addr:f.Testcase.addr
  | None -> ()

(* -- the front end --------------------------------------------------------

   Every campaign, batch or streaming, profiles its corpus one program at
   a time, marks the coverage ledger and folds the program into online
   cluster tables: one per keyed strategy, or one count-only table when
   only DF and RAND are wanted, since they need just the flow universe
   and the corpus size. *)

type front = {
  f_profiler : Dataflow.profiler;
  f_cov : Coverage.t;
  f_tables : Cluster.state list;
  mutable f_profile_s : float;          (* sub-phase accumulators *)
  mutable f_generate_s : float;
}

let front (options : options) strategies =
  let profiler = Dataflow.profiler options.config options.spec in
  { f_profiler = profiler;
    f_cov = coverage_universe options.spec (Dataflow.profiler_vars profiler);
    f_tables = List.map (Cluster.start ~seed:options.seed) strategies;
    f_profile_s = 0.0; f_generate_s = 0.0 }

(* A named strategy's result among [tables]: keyed strategies have their
   own, DF and RAND come from any table's flow universe. *)
let pick ~seed ~corpus_size (tables : Cluster.result list) strategy =
  match List.find_opt (fun g -> g.Cluster.strategy = strategy) tables with
  | Some g -> g
  | None when Cluster.keyed strategy ->
    Fmt.invalid_arg "Campaign: %s was not prepared"
      (Cluster.strategy_name strategy)
  | None ->
    Cluster.unclustered ~seed ~corpus_size
      ~df_total:(List.hd tables).Cluster.df_total strategy

(* Fold programs [from ..] of [corpus] into [f], handing each program's
   events, one list per table, to [on_events]; then [finish] the tables
   — a stream finishes nothing here, and finalizes when it builds a
   result. Profiling and feeding accumulate into the profile and
   generate sub-phases (finishing counts as generating), which the
   caller publishes as the "time.profile_s"/"time.generate_s" gauges.
   Callers run it as the "front" phase, so both sub-phases fit inside
   its span. *)
let front_fold f corpus ~from ~on_events ~finish =
  for prog = from to Array.length corpus - 1 do
    let (raw, filtered), dt =
      timed (fun () -> Dataflow.profile_program_full f.f_profiler corpus.(prog))
    in
    f.f_profile_s <- f.f_profile_s +. dt;
    mark_profiled f.f_cov ~raw ~filtered;
    let events, dt =
      timed (fun () ->
          List.map (fun st -> Cluster.feed st ~prog filtered) f.f_tables)
    in
    f.f_generate_s <- f.f_generate_s +. dt;
    on_events events
  done;
  let tables, dt = timed (fun () -> finish f.f_tables) in
  f.f_generate_s <- f.f_generate_s +. dt;
  tables

let set_front_gauges obs f =
  Metrics.set_gauge (time_gauge obs "profile_s") f.f_profile_s;
  Metrics.set_gauge (time_gauge obs "generate_s") f.f_generate_s

let front_attrs ~from ~to_size =
  [ ("from", string_of_int from); ("to", string_of_int to_size) ]

let prepare ?strategies (options : options) =
  let named =
    match strategies with
    | None -> [ options.strategy ]
    | Some (_ :: _ as named) -> named
    | Some [] -> invalid_arg "Campaign.prepare: no strategy named"
  in
  let obs = match options.obs with Some o -> o | None -> Obs.create () in
  let corpus =
    Array.of_list (Corpus.generate ~seed:options.seed ~size:options.corpus_size)
  in
  let f =
    front options
      (match List.filter Cluster.keyed named with
      | [] -> [ Cluster.Df ]
      | keyed -> keyed)
  in
  let finish states =
    List.map
      (pick ~seed:options.seed ~corpus_size:(Array.length corpus)
         (List.map Cluster.finalize states))
      named
  in
  let tables, _ =
    phase obs "front" ~attrs:(front_attrs ~from:0 ~to_size:(Array.length corpus))
      (fun () -> front_fold f corpus ~from:0 ~on_events:ignore ~finish)
  in
  set_front_gauges obs f;
  { p_options = options; p_corpus = corpus; p_tables = tables; p_obs = obs;
    p_cov = f.f_cov }

let prepared_corpus prepared = prepared.p_corpus

(* Algorithm 2 on one report, re-testing on [sup]: masked divergence
   restricted to receiver calls that access protected resources, the
   supervised test surviving modified senders that crash the kernel.
   [sup] is the supervisor that just executed the case, so the
   receiver's baseline and mask are cached. The wall time accumulates
   into the "time.diagnose_s" gauge of [sup]'s bundle, a sub-phase of
   execute; volatile gauges of a domain's or a pool worker's bundle are
   never folded back, so it counts only the campaign's own supervisor. *)
let diagnose spec sup (r : Report.t) =
  let test ~sender ~receiver =
    Filter.protected_interfered spec receiver
      (Supervisor.test_interference sup ~sender ~receiver)
  in
  let pairs, dt =
    timed (fun () ->
        Diagnose.culprits ~test ~sender:r.Report.sender
          ~receiver:r.Report.receiver ~interfered:r.Report.interfered)
  in
  Metrics.add_gauge (time_gauge sup.Supervisor.obs "diagnose_s") dt;
  pairs

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
  cr_culprits : Diagnose.pair list option;  (* the report's, if diagnosed *)
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
  mutable a_rev_keyed : Aggregate.keyed list;   (* diagnosed reports *)
  mutable a_rev_concurrent : Report.t list;
  mutable a_rev_quarantined : Supervisor.crash list;
}

let acc_create () =
  { a_funnel = Filter.funnel_create (); a_sched = sched_create ();
    a_attrition = attrition_create (); a_rev_reports = []; a_rev_keyed = [];
    a_rev_concurrent = []; a_rev_quarantined = [] }

(* The one per-case fold: the execute driver feeds every result, in
   representative order, through here. A diagnosed report is keyed
   here too, so the keyed list comes out in representative order. *)
let absorb ~cov acc (r : case_result) =
  add_funnel acc.a_funnel r.cr_funnel;
  add_sched acc.a_sched r.cr_sched;
  charge_case acc.a_attrition r;
  Option.iter (mark_report_attributed cov) r.cr_report;
  List.iter (mark_report_attributed cov) r.cr_concurrent;
  Option.iter (fun rep -> acc.a_rev_reports <- rep :: acc.a_rev_reports)
    r.cr_report;
  (match (r.cr_report, r.cr_culprits) with
  | Some rep, Some pairs ->
    acc.a_rev_keyed <- Aggregate.key_report rep pairs :: acc.a_rev_keyed
  | _ -> ());
  acc.a_rev_concurrent <- List.rev_append r.cr_concurrent acc.a_rev_concurrent;
  acc.a_rev_quarantined <- List.rev_append r.cr_crashes acc.a_rev_quarantined

(* Execute one cluster representative under supervision; quarantined
   crashers are captured by quarantine-count delta and produce no
   report, and a report is diagnosed on the same supervisor when
   [options.diagnose] is set. [attrs] are correlation attributes
   ([case], [cluster], [domain]) stamped on the execution's trace
   events, so the reconstructed span tree can join each execution to
   its test case no matter which schedule ran it. *)
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
               ~receiver)
            search.Runner.sr_findings
        end
      in
      (report, concurrent)
  in
  let crashes = Supervisor.quarantined_since sup q0 in
  let culprits =
    if options.diagnose then Option.map (diagnose options.spec sup) report
    else None
  in
  { cr_tc = tc; cr_funnel = funnel; cr_report = report;
    cr_concurrent = concurrent; cr_sched = sched; cr_crashes = crashes;
    cr_culprits = culprits }

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
    cr_concurrent = []; cr_sched = sched_create (); cr_crashes = [ crash ];
    cr_culprits = None }

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

(* Deal [(case, tc)] pairs over [n] slices by receiver group, so each
   slice's runner memos (baseline, mask, search) hit as they do
   sequentially: each group of equal [key tc] goes whole, largest
   first, to the least-loaded slice (ties to the lowest index), and a
   slice keeps its cases in case order. *)
let deal ~key n cases =
  let groups = Hashtbl.create 64 in     (* key -> cases, newest first *)
  let order = ref [] in                 (* keys, newest first *)
  List.iter
    (fun ((_, tc) as case) ->
      let k = key tc in
      match Hashtbl.find_opt groups k with
      | Some cases -> Hashtbl.replace groups k (case :: cases)
      | None ->
        order := k :: !order;
        Hashtbl.add groups k [ case ])
    cases;
  let slices = Array.make n [] and load = Array.make n 0 in
  List.rev_map
    (fun k ->
      let cases = Hashtbl.find groups k in
      (List.length cases, cases))
    !order
  |> List.stable_sort (fun (m, _) (n, _) -> Int.compare n m)
  |> List.iter (fun (n, cases) ->
         let d = ref 0 in
         Array.iteri (fun i l -> if l < load.(!d) then d := i) load;
         slices.(!d) <- List.rev_append cases slices.(!d);
         load.(!d) <- load.(!d) + n);
  Array.map (List.sort (fun (i, _) (j, _) -> Int.compare i j)) slices

(* The one chunk runner behind every in-process path. The chunk's
   representatives arrive as [(case, tc)] pairs ([case] a globally
   increasing index; [attrs case] its correlation attributes, built as
   the case runs) and run sequentially on [sup] unless [options.domains]
   exceeds 1; then they are dealt over that many slices by receiver
   program ([deal] on [Program.hash]: a collision merges two groups,
   which only costs balance). Each domain boots its own isolated
   supervised environment and observability registry and produces
   per-case results, stamping its executions with a ["domain"] attr on
   top of the case attrs. The
   merge sorts by case index, so reports, funnel and quarantine come out
   structurally identical to the sequential schedule — only wall-clock
   and the execution count change. Per-domain registries are folded
   into [sup]'s bundle with [Metrics.absorb], the per-domain trace
   rings with [Tracer.merge], and each domain supervisor's stats and
   fault counters into [sup]'s with [Supervisor.absorb]; the absorbed
   ["exec.executions"] counts are how domain executions reach
   [Supervisor.executions sup]. Emits
   like [exec_cases_absorbing], in chunk order: sequentially as each
   case finishes, over domains once every domain is joined. *)
let run_chunk ~attrs ~emit options corpus sup chunk =
  let domains = options.domains in
  if domains <= 1 then exec_cases_absorbing ~attrs ~emit options corpus sup chunk
  else begin
    let obs = sup.Supervisor.obs in
    let hashes = Hashtbl.create 64 in   (* receiver index -> hash *)
    let key (tc : Testcase.t) =
      let r = tc.Testcase.receiver in
      match Hashtbl.find_opt hashes r with
      | Some h -> h
      | None ->
        let h = Program.hash corpus.(r) in
        Hashtbl.add hashes r h;
        h
    in
    let slices = deal ~key domains chunk in
    let worker d slice () =
      let wobs = Obs.create () in
      let wsup = make_supervisor ~obs:wobs options in
      let dom = ("domain", string_of_int d) in
      let out = ref [] in
      exec_cases_absorbing
        ~attrs:(fun case -> dom :: attrs case)
        ~emit:(fun case r execs -> out := (case, r, execs) :: !out)
        options corpus wsup slice;
      ( !out,
        Obs.snapshot wobs,
        Tracer.events wobs.Obs.tracer,
        (wsup.Supervisor.stats, Fault.counters wsup.Supervisor.fault) )
    in
    let handles =
      Array.mapi
        (fun d slice ->
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
    List.iter
      (fun (_, snap, _, (stats, faults)) ->
        Metrics.absorb obs.Obs.metrics snap;
        Supervisor.absorb sup stats faults)
      results;
    Tracer.merge obs.Obs.tracer
      (List.map (fun (_, _, events, _) -> events) results);
    List.concat_map (fun (out, _, _, _) -> out) results
    |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
    |> List.iter (fun (case, r, execs) -> emit case r execs)
  end

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

(* The clusters of one prepared strategy (default: the options'). The
   serve scheduler materialises a tenant's representatives this way and
   executes them on the shared pool through the driver below. *)
let generate_prepared ?strategy prepared =
  let options = prepared.p_options in
  pick ~seed:options.seed ~corpus_size:(Array.length prepared.p_corpus)
    prepared.p_tables
    (Option.value strategy ~default:options.strategy)

(* Public alias: pool workers boot the exact environment the built-in
   paths use. *)
let supervisor = make_supervisor

(* -- the execute driver ---------------------------------------------------

   Every campaign result is built here, in four calls on one [run]:
   [start] replays the results the log already holds; [todo] lists the
   other representatives with their global case indices, so case [i] is
   the same representative whichever process runs it; [complete] folds
   each completion as it arrives, records it in the log and saves the
   log every [log.every] completions (the executor's end saves and
   syncs it); [finish] builds the result.
   Results are folded in representative order through [absorb]; one
   that arrives early waits for the cases before it. A result's
   [executions] is the sum of the per-case costs the driver receives,
   replayed or executed, diagnosis re-tests included. [drive] and
   [stream_result] make the four calls around an executor; a serve
   tenant makes them itself, with the shared pool as its executor. *)

type executor =
  options -> Program.t array -> Supervisor.t -> batch:int ->
  (int * Testcase.t) list -> on_done:(int -> case_result -> int -> unit) ->
  unit

type log = {
  replay : int -> Testcase.t -> (case_result * int) option;
  record : Testcase.t -> case_result -> int -> unit;
  every : int;
  save : unit -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

(* The driver keeps only what it uses: options, corpus, bundle and
   ledger, never its todo list. *)
type run = {
  r_options : options;
  r_corpus : Program.t array;
  r_obs : Obs.t;
  r_cov : Coverage.t;
  r_generation : Cluster.result;
  r_cases : int;
  r_log : log option;
  r_acc : acc;
  r_early : (int, case_result) Hashtbl.t;  (* arrived ahead of [r_next] *)
  mutable r_next : int;                    (* results folded *)
  mutable r_replayed : int;
  mutable r_executions : int;
  mutable r_unsaved : int;                 (* completions since a save *)
}

let rec arrive r case res =
  if case <> r.r_next then Hashtbl.replace r.r_early case res
  else begin
    absorb ~cov:r.r_cov r.r_acc res;
    r.r_next <- case + 1;
    match Hashtbl.find_opt r.r_early r.r_next with
    | Some res ->
      Hashtbl.remove r.r_early r.r_next;
      arrive r r.r_next res
    | None -> ()
  end

let fold r case res execs =
  r.r_executions <- r.r_executions + execs;
  arrive r case res

(* Whether a logged result can be folded as it stands: with diagnosis
   on, a report needs its culprits. A log written before results
   carried them holds none, and that case runs again. *)
let replayable (options : options) res =
  not (options.diagnose && Option.is_some res.cr_report
       && Option.is_none res.cr_culprits)

let start ?log prepared generation =
  let r =
    { r_options =
        { prepared.p_options with strategy = generation.Cluster.strategy };
      r_corpus = prepared.p_corpus; r_obs = prepared.p_obs;
      r_cov = prepared.p_cov; r_generation = generation;
      r_cases = List.length generation.Cluster.reps; r_log = log;
      r_acc = acc_create (); r_early = Hashtbl.create 16; r_next = 0;
      r_replayed = 0; r_executions = 0; r_unsaved = 0 }
  in
  Option.iter
    (fun l ->
      List.iteri
        (fun i tc ->
          match l.replay i tc with
          | Some (res, execs) when replayable r.r_options res ->
            r.r_replayed <- r.r_replayed + 1;
            fold r i res execs
          | Some _ | None -> ())
        generation.Cluster.reps)
    log;
  r

(* Accumulated in reverse, then reversed: built in order by
   tail-mod-cons, the list left OCaml 5.1's major heap fragmented, and
   kitbench rand-cold's peak RSS read 84.0 MB against 75.3 MB. *)
let todo r =
  let rev = ref [] in
  List.iteri
    (fun i tc ->
      if i >= r.r_next && not (Hashtbl.mem r.r_early i) then
        rev := (i, tc) :: !rev)
    r.r_generation.Cluster.reps;
  List.rev !rev

let save r =
  match r.r_log with
  | Some l when r.r_unsaved > 0 ->
    r.r_unsaved <- 0;
    l.save ()
  | Some _ | None -> ()

(* The final save: every completion on disk and fsynced. *)
let save_durably r =
  save r;
  Option.iter (fun l -> l.sync ()) r.r_log

let complete r case res execs =
  fold r case res execs;
  match r.r_log with
  | None -> ()
  | Some l ->
    l.record res.cr_tc res execs;
    r.r_unsaved <- r.r_unsaved + 1;
    if r.r_unsaved >= l.every then save r

let run_cases r = r.r_cases
let run_completed r = r.r_next + Hashtbl.length r.r_early
let run_replayed r = r.r_replayed
let run_executions r = r.r_executions

(* The one place a campaign result is built, as a pure fold: it closes
   the attrition balance, mirrors the final accounting into the
   always-on "campaign.*" counters, then closes the log. No kernel
   runs here; [sup] is read for its supervision counters only. *)
let finish ?sup r =
  if r.r_next < r.r_cases then
    Fmt.invalid_arg "Campaign.finish: case %d has no result" r.r_next;
  let { r_options = options; r_obs = obs; r_generation = generation; _ } = r in
  let acc = r.r_acc in
  let reports = List.rev acc.a_rev_reports in
  let concurrent = List.rev acc.a_rev_concurrent in
  let quarantined = List.rev acc.a_rev_quarantined in
  let keyed = if options.diagnose then List.rev acc.a_rev_keyed else [] in
  let executions = r.r_executions in
  let sup_stats, fault_counters =
    match sup with
    | Some sup -> (sup.Supervisor.stats, Fault.counters sup.Supervisor.fault)
    | None ->
      ( { Supervisor.attempts = 0; retries = 0; reboots = 0; boot_failures = 0;
          corruptions = 0; backoff_ms = 0.0 },
        Fault.counters (Fault.none ()) )
  in
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
  set_coverage_counters obs r.r_cov attrition;
  let t =
    {
      options;
      corpus = r.r_corpus;
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
      sup_stats;
      fault_counters;
      timings = read_timings obs;
      obs;
      coverage = r.r_cov;
      attrition;
    }
  in
  Option.iter (fun l -> l.close ()) r.r_log;
  t

(* The first [n] elements of [l] and the rest; [l] itself, uncopied,
   when it has no more than [n]. *)
let split_at n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  if List.compare_length_with l n <= 0 then (l, []) else go n [] l

(* [run_chunk] on [sup], [batch] cases at a time, so a log is saved
   while the campaign runs even when the chunks fan out over domains. *)
let in_process options corpus sup ~batch cases ~on_done =
  let attrs case = [ ("case", string_of_int case) ] in
  let rec go cases =
    if cases <> [] then begin
      let now, later = split_at (max 1 batch) cases in
      run_chunk ~attrs ~emit:on_done options corpus sup now;
      go later
    end
  in
  go cases

(* [run]'s todo list on [executor], in the execute phase on the
   supervisor [boot] supplies, then [finish]. [elapsed_base] seeds the
   execute gauge with execution time spent before the driver ran. *)
let drive_on ?(executor = in_process) ?elapsed_base ~boot r =
  let todo = todo r in
  (* An executor that dies (a pool with every worker gone) still leaves
     its completions in the log for the next run to replay. *)
  let sup =
    match
      phase r.r_obs "execute" ?base:elapsed_base
        ~attrs:
          [ ("cases", string_of_int (List.length todo));
            ("domains", string_of_int (max 1 r.r_options.domains)) ]
        (fun () ->
          let sup = boot () in
          if todo <> [] then
            executor r.r_options r.r_corpus sup
              ~batch:(match r.r_log with Some l -> l.every | None -> max_int)
              todo ~on_done:(complete r);
          sup)
    with
    | sup, _ ->
      save_durably r;
      sup
    | exception e ->
      save_durably r;
      raise e
  in
  finish ~sup r

(* A batch execute phase starts the diagnosis sub-phase from zero, so
   strategies sharing one bundle (Table 4) do not accumulate it. *)
let drive ?executor r =
  Metrics.set_gauge (time_gauge r.r_obs "diagnose_s") 0.0;
  drive_on ?executor
    ~boot:(fun () -> make_supervisor ~obs:r.r_obs r.r_options)
    r

let execute_prepared ?strategy prepared =
  drive (start prepared (generate_prepared ?strategy prepared))

(* Run a complete campaign with [options]. *)
let run options = execute_prepared (prepare options)

(* -- streaming pipeline --------------------------------------------------

   Execute-while-generate: the front end runs over one table, and any
   cluster a program seals (or re-seals with a smaller representative)
   executes immediately — no global clustering barrier, so the first
   report lands while most of the corpus is still unprofiled.

   Every executed representative joins an in-memory memo keyed by
   testcase fingerprint. The result is the execute driver over the
   finalized clusters, with the memo as its log and the stream's own
   supervisor: streamed representatives replay, and any others (RAND
   draws, which exist only over the final corpus) execute there and
   join the memo. [extend] feeds M more programs, which executes only
   clusters that are new or whose representative changed, then builds
   the result the same way. *)

type stream = {
  s_options : options;
  s_obs : Obs.t;
  s_front : front;                      (* one table: [s_cstate] *)
  s_cstate : Cluster.state;
  s_sup : Supervisor.t;                 (* runs the stream and its results *)
  mutable s_corpus : Program.t array;
  s_memo : (string, case_result * int) Hashtbl.t;
      (* testcase fingerprint -> (result, executions) *)
  s_t0 : float;
  mutable s_first_report_s : float option;
  mutable s_exec_cases : int;           (* rep executions incl. re-runs *)
  mutable s_reexecuted : int;           (* rep-change invalidations *)
  mutable s_execute_s : float;
  mutable s_front_s : float;            (* cumulative front-end wall time *)
}

type stream_stats = {
  fed : int;                            (* programs folded *)
  executed_cases : int;
  reexecuted : int;
  first_report_s : float option;
  peak_feed_pairs : int;
}

let stream_stats s =
  { fed = Cluster.fed s.s_cstate;
    executed_cases = s.s_exec_cases;
    reexecuted = s.s_reexecuted;
    first_report_s = s.s_first_report_s;
    peak_feed_pairs = Cluster.peak_feed_pairs s.s_cstate }

let s_counter s name n = Metrics.set_counter (c_counter s.s_obs name) n

(* One executed representative, eagerly or by the driver. *)
let memo_record s r execs =
  Hashtbl.replace s.s_memo (Testcase.fingerprint r.cr_tc) (r, execs);
  s.s_exec_cases <- s.s_exec_cases + 1;
  if Option.is_some r.cr_report && s.s_first_report_s = None then
    s.s_first_report_s <- Some (Unix.gettimeofday () -. s.s_t0)

(* Execute the clusters an event batch sealed or re-sealed. *)
let stream_execute s (events : Cluster.event list) =
  let cases =
    List.map
      (function
        | Cluster.Sealed (id, tc) -> (id, tc)
        | Cluster.Rep_changed (id, tc) ->
          s.s_reexecuted <- s.s_reexecuted + 1;
          (id, tc))
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
    let emit _ r execs = memo_record s r execs in
    let (), dt =
      timed (fun () ->
          run_chunk ~attrs ~emit s.s_options s.s_corpus s.s_sup indexed)
    in
    s.s_execute_s <- s.s_execute_s +. dt
  end

(* Grow the stream's corpus to [to_size] programs through the front end,
   one front phase per growth step. *)
let stream_grow s ~to_size =
  let from = Array.length s.s_corpus in
  if to_size < from then invalid_arg "Campaign.extend: corpus cannot shrink";
  (* Corpus generation is prefix-stable: generating a larger corpus from
     the same seed extends the smaller one, so only the suffix is new. *)
  s.s_corpus <-
    Array.of_list (Corpus.generate ~seed:s.s_options.seed ~size:to_size);
  let _, dt =
    phase s.s_obs "front" ~base:s.s_front_s ~attrs:(front_attrs ~from ~to_size)
      (fun () ->
        front_fold s.s_front s.s_corpus ~from
          ~on_events:(List.iter (stream_execute s)) ~finish:(fun _ -> []))
  in
  s.s_front_s <- s.s_front_s +. dt;
  s_counter s "stream_fed" (Cluster.fed s.s_cstate);
  s_counter s "stream_executed" s.s_exec_cases;
  s_counter s "stream_reexecuted" s.s_reexecuted

let stream (options : options) =
  let obs = match options.obs with Some o -> o | None -> Obs.create () in
  let options = { options with obs = Some obs } in
  let front = front options [ options.strategy ] in
  let s =
    { s_options = options;
      s_obs = obs;
      s_front = front;
      s_cstate = List.hd front.f_tables;
      s_sup = make_supervisor ~obs options;
      s_corpus = [||];
      s_memo = Hashtbl.create 256;
      s_t0 = Unix.gettimeofday ();
      s_first_report_s = None;
      s_exec_cases = 0;
      s_reexecuted = 0;
      s_execute_s = 0.0;
      s_front_s = 0.0 }
  in
  (* The stream's diagnosis sub-phase is every eager diagnosis on
     [s_sup], so it starts from zero here, not per result. *)
  Metrics.set_gauge (time_gauge obs "diagnose_s") 0.0;
  stream_grow s ~to_size:options.corpus_size;
  s

(* The execute driver over the finalized clusters, with the memo as its
   log: the execute-phase gauge adds the eager executions, and a
   replayed report keeps the culprits it was diagnosed with. *)
let stream_result s =
  let obs = s.s_obs in
  set_front_gauges obs s.s_front;
  let log =
    { replay =
        (fun _ tc -> Hashtbl.find_opt s.s_memo (Testcase.fingerprint tc));
      record = (fun _ r execs -> memo_record s r execs);
      every = max_int;
      save = ignore;
      sync = ignore;
      close = ignore }
  in
  let prepared =
    { p_options = { s.s_options with corpus_size = Array.length s.s_corpus };
      p_corpus = s.s_corpus; p_tables = []; p_obs = obs;
      p_cov = s.s_front.f_cov }
  in
  let t =
    drive_on ~elapsed_base:s.s_execute_s
      ~boot:(fun () -> s.s_sup)
      (start ~log prepared (Cluster.finalize s.s_cstate))
  in
  s.s_execute_s <- t.timings.execute_s;
  t

let extend s ~add =
  if add < 0 then invalid_arg "Campaign.extend: add must be non-negative";
  stream_grow s ~to_size:(Array.length s.s_corpus + add);
  stream_result s
