(* Whole-pipeline properties, checked with qcheck over randomly
   generated programs: execution determinism from snapshots, silence of
   the fixed kernel on every curated reproducer, and self-consistency of
   the bounds learner. *)

module K = Kit_kernel
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang
module Corpus = Kit_abi.Corpus
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Ast = Kit_trace.Ast
module Bounds = Kit_trace.Bounds
module Known_bugs = Kit_core.Known_bugs
module Campaign = Kit_core.Campaign
module Fault = Kit_kernel.Fault
module Report = Kit_detect.Report
module Aggregate = Kit_report.Aggregate

(* Random programs drawn from the corpus generator, so they are
   well-formed in the same way campaign inputs are. *)
let gen_program =
  QCheck.Gen.(
    map
      (fun (seed, idx) ->
        let corpus = Corpus.generate ~seed ~size:8 in
        List.nth corpus (idx mod List.length corpus))
      (pair small_nat small_nat))

let arbitrary_program = QCheck.make ~print:Program.to_string gen_program

let arbitrary_pair = QCheck.pair arbitrary_program arbitrary_program

(* Shared environments: properties run hundreds of cases, so reuse the
   booted kernels (every execution reloads the snapshot anyway). *)
let buggy_runner = lazy (Runner.create (Env.create (K.Config.v5_13 ())))
let fixed_runner = lazy (Runner.create (Env.create (K.Config.fixed ())))

let prop_execution_deterministic =
  QCheck.Test.make ~name:"execute is deterministic per test case" ~count:60
    arbitrary_pair (fun (sender, receiver) ->
      let runner = Lazy.force buggy_runner in
      let a = Runner.execute runner ~sender ~receiver in
      let b = Runner.execute runner ~sender ~receiver in
      Ast.equal a.Runner.trace_a b.Runner.trace_a
      && Ast.equal a.Runner.trace_b b.Runner.trace_b
      && a.Runner.interfered = b.Runner.interfered)

let prop_interfered_subset_of_receiver =
  QCheck.Test.make ~name:"interfered indices are valid receiver calls"
    ~count:60 arbitrary_pair (fun (sender, receiver) ->
      let runner = Lazy.force buggy_runner in
      let outcome = Runner.execute runner ~sender ~receiver in
      List.for_all
        (fun i -> i >= 0 && i < max 1 (Program.length receiver))
        outcome.Runner.interfered)

let prop_self_interference_masked_or_real =
  (* Running the receiver as its own sender can only diverge through the
     genuinely shared kernel state; on the fully fixed kernel the only
     surviving divergences are the by-design global resources, so the
     masked interference must never name a call the spec protects as
     namespaced-only (hostname). *)
  QCheck.Test.make ~name:"fixed kernel never interferes on hostnames"
    ~count:60 arbitrary_pair (fun (sender, receiver) ->
      let runner = Lazy.force fixed_runner in
      let outcome = Runner.execute runner ~sender ~receiver in
      List.for_all
        (fun i ->
          match Program.nth receiver i with
          | Some { Program.sysno = Kit_abi.Sysno.Gethostname; _ } -> false
          | Some _ | None -> true)
        outcome.Runner.interfered)

let prop_bounds_cover_learning_inputs =
  (* Bounds learned from a set of runs never flag those same runs. *)
  QCheck.Test.make ~name:"bounds cover their learning inputs" ~count:100
    (QCheck.pair QCheck.small_nat QCheck.small_nat) (fun (seed, idx) ->
      let corpus = Corpus.generate ~seed ~size:6 in
      let receiver = List.nth corpus (idx mod List.length corpus) in
      let runner = Lazy.force buggy_runner in
      let base = runner.Runner.env.Env.base0 in
      let solo base = Runner.run_pair runner ~base (Program.make []) receiver in
      let reference = solo base in
      let alt = solo (base + 7_777) in
      let bounds = Bounds.learn reference [ alt ] in
      Bounds.check bounds reference = [] && Bounds.check bounds alt = [])

(* --- execution hot-path equivalences ------------------------------------
   The three optimisations of the execution loop are behaviour-preserving
   by construction; these properties pin that down end to end. *)

let prop_incremental_restore_equals_full =
  (* Two identical heaps take the same snapshot and the same random
     write sequences; one restores incrementally (dirty cells only), the
     other with ~full:true. Every variable — including one registered
     after the capture, which neither path may touch — must agree after
     each round. *)
  QCheck.Test.make ~name:"incremental restore = full restore" ~count:100
    QCheck.(
      pair
        (small_list (pair small_nat small_nat))
        (small_list (pair small_nat small_nat)))
    (fun (writes1, writes2) ->
      let n_vars = 6 in
      let make () =
        let heap = K.Heap.create () in
        let ctx = K.Ctx.create () in
        let vars =
          Array.init n_vars (fun i ->
              K.Var.alloc heap ~name:(Printf.sprintf "v%d" i) i)
        in
        (heap, ctx, vars)
      in
      let h1, c1, v1 = make () in
      let h2, c2, v2 = make () in
      let s1 = K.Heap.snapshot h1 in
      let s2 = K.Heap.snapshot h2 in
      let late1 = K.Var.alloc h1 ~name:"late" 99 in
      let late2 = K.Var.alloc h2 ~name:"late" 99 in
      let apply ctx vars late writes =
        List.iter
          (fun (i, x) ->
            if i mod (n_vars + 1) = n_vars then K.Var.write ctx late x
            else K.Var.write ctx vars.(i mod (n_vars + 1)) x)
          writes
      in
      let agree () =
        K.Var.peek late1 = K.Var.peek late2
        && Array.for_all2
             (fun a b -> K.Var.peek a = K.Var.peek b)
             v1 v2
      in
      apply c1 v1 late1 writes1;
      apply c2 v2 late2 writes1;
      K.Heap.restore h1 s1;
      K.Heap.restore ~full:true h2 s2;
      let round1 = agree () in
      apply c1 v1 late1 writes2;
      apply c2 v2 late2 writes2;
      K.Heap.restore h1 s1;
      K.Heap.restore ~full:true h2 s2;
      round1 && agree ())

(* Structural fingerprint of what a campaign concluded. No_sharing
   matters: the baseline cache makes reports physically share trace
   ASTs, and Marshal's back-references would encode that sharing even
   though the reports are structurally identical. *)
let campaign_fp (c : Campaign.t) =
  Digest.string
    (Marshal.to_string
       (c.Campaign.reports, c.Campaign.funnel, c.Campaign.quarantined)
       [ Marshal.No_sharing ])

let prop_baseline_cache_invisible =
  (* The receiver-solo baseline depends only on the receiver program,
     and a sender's replayed state and fuel only on the sender, so
     memoizing them can change execution counts but never reports,
     funnel or quarantine — with or without transient faults armed
     (fault-armed runs bypass the caches entirely), and under a fuel
     limit that hangs some cases where they hang when every sender
     runs. The corpus runs past the 52 curated programs, so the seed
     matters. *)
  QCheck.Test.make ~name:"baseline cache never changes campaign results"
    ~count:6
    QCheck.(triple (int_range 0 1000) (int_range 0 2) (int_range 3 6))
    (fun (seed, intensity, fuel) ->
      let options =
        { Campaign.default_options with
          Campaign.seed;
          corpus_size = 96;
          faults = Fault.schedule_of_seed ~seed ~intensity;
          fuel }
      in
      campaign_fp (Campaign.run { options with Campaign.baseline_cache = true })
      = campaign_fp
          (Campaign.run { options with Campaign.baseline_cache = false }))

let prop_search_memo_invisible =
  (* With no fault armed a schedule search is a pure function of its
     pair, so the search memo (off with the baseline cache) can change
     execution counts but never the campaign: reports, funnel,
     quarantine, concurrent findings, search totals and summary — with
     or without transient faults armed (fault-armed runs bypass the
     memo). The corpus runs past the 52 curated programs, so the seed
     matters. *)
  QCheck.Test.make ~name:"search memo never changes campaign results"
    ~count:4
    QCheck.(triple (int_range 0 1000) bool (int_range 0 2))
    (fun (seed, wide, intensity) ->
      let options =
        { Campaign.default_options with
          Campaign.seed;
          config = K.Config.v5_13_rw ();
          corpus_size = 60;
          schedules = (if wide then 64 else 16);
          faults = Fault.schedule_of_seed ~seed ~intensity }
      in
      let result (c : Campaign.t) =
        ( campaign_fp c,
          Digest.string
            (Marshal.to_string
               (c.Campaign.concurrent, c.Campaign.sched)
               [ Marshal.No_sharing ]),
          Kit_serve.Proto.summary c )
      in
      result (Campaign.run options)
      = result (Campaign.run { options with Campaign.baseline_cache = false }))

let prop_parallel_campaign_equals_sequential =
  (* Reports, funnel, quarantine and summary agree, and with no fault
     armed so does the execution count: each receiver group runs whole
     on one domain, and its reports are diagnosed there, on the caches
     its cases warmed. The corpus runs past the 52 curated programs, so
     the seed matters. *)
  QCheck.Test.make ~name:"campaign domains=N = domains=1" ~count:4
    QCheck.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, domains) ->
      let options =
        { Campaign.default_options with Campaign.seed; corpus_size = 96 }
      in
      let parallel = Campaign.run { options with Campaign.domains } in
      let sequential = Campaign.run options in
      campaign_fp parallel = campaign_fp sequential
      && Kit_serve.Proto.summary parallel = Kit_serve.Proto.summary sequential
      && parallel.Campaign.executions = sequential.Campaign.executions)

(* --- streaming pipeline equivalences ------------------------------------ *)

(* The streaming fingerprint additionally pins df_total: the online
   clusterer maintains it incrementally, the batch path scans the built
   map. *)
let stream_fp (c : Campaign.t) =
  Digest.string
    (Marshal.to_string
       ( c.Campaign.reports, c.Campaign.funnel, c.Campaign.quarantined,
         c.Campaign.df_total )
       [ Marshal.No_sharing ])

(* Everything a campaign result says that is deterministic: the
   fingerprint above, the summary (diagnosis, AGG-RS, schedule-search
   totals, concurrent findings) and the coverage ledger. *)
let result_bytes (c : Campaign.t) =
  ( stream_fp c,
    Kit_serve.Proto.summary c,
    Kit_obs.Coverage.jsonl_lines c.Campaign.coverage )

let prop_streaming_equals_batch =
  (* Execute-while-generate must be invisible: for any strategy, any
     domain count and any transient-fault schedule, the streaming
     pipeline's result is the batch campaign's — reports, funnel,
     quarantine, df_total, summary and coverage ledger. Both end in the
     one execute driver, so without faults on one domain the execution
     count agrees too. (Fault-armed executions bypass the baseline
     cache, and the stream's execution order arms other cases; at
     domains > 1 the stream boots per-domain supervisors for every
     eager chunk, whose baseline caches start cold.) *)
  QCheck.Test.make ~name:"streaming campaign = batch campaign" ~count:8
    QCheck.(
      pair (int_range 0 1000)
        (pair (int_range 0 4) (pair (int_range 1 3) (int_range 0 2))))
    (fun (seed, (strat, (domains, intensity))) ->
      let strategy, config, schedules =
        let d = Campaign.default_options in
        match strat with
        | 0 -> (Kit_gen.Cluster.Df_ia, d.Campaign.config, 1)
        | 1 -> (Kit_gen.Cluster.Df_st 1, d.Campaign.config, 1)
        | 2 -> (Kit_gen.Cluster.Rand 30, d.Campaign.config, 1)
        | 3 -> (Kit_gen.Cluster.Df, d.Campaign.config, 1)
        | _ -> (Kit_gen.Cluster.Df_ia, K.Config.v5_13_rw (), 16)
      in
      let options =
        { Campaign.default_options with
          Campaign.seed;
          corpus_size = 24;
          strategy;
          config;
          schedules;
          domains;
          faults = Fault.schedule_of_seed ~seed ~intensity }
      in
      let streamed = Campaign.stream_result (Campaign.stream options) in
      let batch = Campaign.run options in
      result_bytes streamed = result_bytes batch
      && (options.Campaign.faults <> [] || domains > 1
         || streamed.Campaign.executions = batch.Campaign.executions))

let prop_extend_delta_is_cheaper =
  (* Growing a streaming campaign re-executes only new and
     representative-changed clusters: the result is identical to a
     from-scratch campaign of the final corpus size, and the delta
     executes strictly fewer cluster representatives. *)
  QCheck.Test.make ~name:"extend = from-scratch, strictly fewer executions"
    ~count:4
    QCheck.(pair (int_range 0 1000) (pair (int_range 12 20) (int_range 1 8)))
    (fun (seed, (base, add)) ->
      let options =
        { Campaign.default_options with Campaign.seed; corpus_size = base }
      in
      let s = Campaign.stream options in
      let _ = Campaign.stream_result s in
      let before = (Campaign.stream_stats s).Campaign.executed_cases in
      let grown = Campaign.extend s ~add in
      let delta = (Campaign.stream_stats s).Campaign.executed_cases - before in
      let scratch =
        Campaign.run { options with Campaign.corpus_size = base + add }
      in
      let scratch_reps =
        List.length scratch.Campaign.generation.Kit_gen.Cluster.reps
      in
      stream_fp grown = stream_fp scratch && delta < scratch_reps)

(* --- diagnosis in the case job ------------------------------------------ *)

(* The model of diagnosis before it ran in the case job: Algorithm 2
   over the finished campaign's reports, in order, on one fresh
   supervisor. *)
let reference_keyed (c : Campaign.t) =
  let o = c.Campaign.options in
  let sup = Campaign.supervisor ~obs:(Kit_obs.Obs.create ()) o in
  let test ~sender ~receiver =
    Kit_detect.Filter.protected_interfered o.Campaign.spec receiver
      (Kit_exec.Supervisor.test_interference sup ~sender ~receiver)
  in
  List.map
    (fun (r : Report.t) ->
      Aggregate.key_report r
        (Kit_report.Diagnose.culprits ~test ~sender:r.Report.sender
           ~receiver:r.Report.receiver ~interfered:r.Report.interfered))
    c.Campaign.reports

let keyed_view keyed =
  List.map
    (fun (k : Aggregate.keyed) ->
      ( k.Aggregate.report.Report.testcase, k.Aggregate.pairs,
        k.Aggregate.sender_sig, k.Aggregate.receiver_sig ))
    keyed

let keyed_is_reference (c : Campaign.t) =
  List.length c.Campaign.keyed = List.length c.Campaign.reports
  && keyed_view c.Campaign.keyed = keyed_view (reference_keyed c)

let prop_keyed_equals_reference =
  (* Diagnosing each report on the supervisor that executed its case
     keys it as re-testing it afterwards on a fresh supervisor does,
     for any strategy, domain count and transient-fault schedule, and
     for a stream grown by [extend], whose unchanged reports replay
     the culprits they were diagnosed with. *)
  QCheck.Test.make ~name:"keyed reports = Algorithm 2 on a fresh supervisor"
    ~count:8
    QCheck.(
      pair (int_range 0 1000)
        (pair (int_range 0 2) (triple (int_range 1 4) (int_range 0 2) bool)))
    (fun (seed, (strat, (domains, intensity, grown))) ->
      let strategy =
        match strat with
        | 0 -> Kit_gen.Cluster.Df_ia
        | 1 -> Kit_gen.Cluster.Df_st 1
        | _ -> Kit_gen.Cluster.Rand 30
      in
      let options =
        { Campaign.default_options with
          Campaign.seed;
          corpus_size = 24;
          strategy;
          domains;
          faults = Fault.schedule_of_seed ~seed ~intensity }
      in
      keyed_is_reference
        (if grown then
           Campaign.extend
             (Campaign.stream { options with Campaign.corpus_size = 16 })
             ~add:8
         else Campaign.run options))

let test_keyed_on_pool () =
  let options =
    { Campaign.default_options with Campaign.seed = 11; corpus_size = 48 }
  in
  let prepared = Campaign.prepare options in
  let c =
    Campaign.drive
      ~executor:
        (Kit_serve.Pool.executor
           { Kit_serve.Pool.default_config with Kit_serve.Pool.procs = 2 })
      (Campaign.start prepared (Campaign.generate_prepared prepared))
  in
  Alcotest.check Alcotest.bool "reports to diagnose" true
    (c.Campaign.reports <> []);
  Alcotest.check Alcotest.bool "keyed on 2 worker processes = reference" true
    (keyed_is_reference c)

let test_fixed_kernel_silences_reproducers () =
  (* Every curated Table 3 reproducer is silent on the fixed kernel. *)
  List.iter
    (fun (case : Known_bugs.case) ->
      let env =
        Env.create ~sender_host:case.Known_bugs.sender_host (K.Config.fixed ())
      in
      let runner = Runner.create env in
      let outcome =
        Runner.execute runner
          ~sender:(Syzlang.parse case.Known_bugs.sender)
          ~receiver:(Syzlang.parse case.Known_bugs.receiver)
      in
      Alcotest.check Alcotest.int
        (Printf.sprintf "case %s silent when fixed" case.Known_bugs.label)
        0
        (List.length outcome.Runner.masked_diffs))
    (List.map (fun o -> o.Known_bugs.case) (Known_bugs.reproduce_all ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_execution_deterministic;
    QCheck_alcotest.to_alcotest prop_interfered_subset_of_receiver;
    QCheck_alcotest.to_alcotest prop_self_interference_masked_or_real;
    QCheck_alcotest.to_alcotest prop_bounds_cover_learning_inputs;
    QCheck_alcotest.to_alcotest prop_incremental_restore_equals_full;
    QCheck_alcotest.to_alcotest prop_baseline_cache_invisible;
    QCheck_alcotest.to_alcotest prop_search_memo_invisible;
    QCheck_alcotest.to_alcotest prop_parallel_campaign_equals_sequential;
    QCheck_alcotest.to_alcotest prop_streaming_equals_batch;
    QCheck_alcotest.to_alcotest prop_extend_delta_is_cheaper;
    QCheck_alcotest.to_alcotest prop_keyed_equals_reference;
    Alcotest.test_case "keyed reports on the process pool = reference" `Quick
      test_keyed_on_pool;
    Alcotest.test_case "fixed kernel silences every reproducer" `Quick
      test_fixed_kernel_silences_reproducers;
  ]
