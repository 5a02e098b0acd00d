(* kitbench — the fixed-seed campaign benchmark.

     kitbench.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

   With --workload, one workload runs in this process as a closed loop:
   each campaign starts when the previous one has finished, for at least
   S seconds (default 18) and at least [min_campaigns] campaigns. Campaign
   [i] runs at seed N + i (default N = 7; 3 is the holdout seed).

   --trace 0 (the default) measures with the bench's tracing off and
   reports the end-to-end metrics of [Catalog.end_to_end]. --trace 1
   instead runs the workload's first campaign once more with spans and
   the default metrics registry on, prints its self-time table on
   stderr and reports the per-layer metrics of [Catalog.per_layer];
   layers only reached inside a public function are measured by
   replaying that campaign's inputs through the layer's own public
   functions.

   Output is one JSON line per metric, then a last line
   {"correct", "attempted", "failed", "metrics"}. Every check runs
   outside the timed regions; any failed check makes [correct] false and
   the exit status 1.

   Without --workload, every workload runs in turn, each in a fresh
   process (a re-exec of this binary), so peak RSS is per workload. *)

module Campaign = Kit_core.Campaign
module Jobqueue = Kit_core.Jobqueue
module Oracle = Kit_core.Oracle
module Cluster = Kit_gen.Cluster
module Dataflow = Kit_gen.Dataflow
module Testcase = Kit_gen.Testcase
module Corpus = Kit_abi.Corpus
module Config = Kit_kernel.Config
module Bugs = Kit_kernel.Bugs
module Fault = Kit_kernel.Fault
module Kernel_sched = Kit_kernel.Sched
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Supervisor = Kit_exec.Supervisor
module Filter = Kit_detect.Filter
module Report = Kit_detect.Report
module Compare = Kit_trace.Compare
module Nondet = Kit_trace.Nondet
module Diagnose = Kit_report.Diagnose
module Accessmap = Kit_profile.Accessmap
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer
module Spantree = Kit_obs.Spantree
module Rss = Kit_compact.Rss
module Pool = Kit_serve.Pool
module Proto = Kit_serve.Proto
module Sched = Kit_serve.Sched
module Tenant = Kit_serve.Tenant

(* Pool workers re-execute this binary; the trampoline must run before
   anything else. No-op in the benchmark process itself. *)
let () = Pool.worker_entry ()

let default_seconds = 18.0                 (* BENCHMARK.json run_seconds *)
let min_campaigns = 5

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* -- checks ------------------------------------------------------------ *)

let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

let failed_cases (c : Campaign.t) =
  let a = c.Campaign.attrition in
  a.Campaign.at_quar_panic + a.Campaign.at_quar_hung + a.Campaign.at_quar_lost

let reps (c : Campaign.t) = List.length c.Campaign.generation.Cluster.reps

let check_campaign label (c : Campaign.t) =
  check (Campaign.attrition_balanced c.Campaign.attrition)
    "%s: attrition does not balance" label;
  check (c.Campaign.quarantined = []) "%s: %d crash reports quarantined" label
    (List.length c.Campaign.quarantined)

let check_new_bugs label (c : Campaign.t) =
  let found = List.length (Oracle.new_bugs_found c.Campaign.keyed) in
  let total = List.length Bugs.new_bugs in
  check (found = total) "%s: %d/%d new bugs" label found total

let check_race_bugs label (c : Campaign.t) =
  let found = List.length (Oracle.race_bugs_found c.Campaign.concurrent) in
  let total = List.length Bugs.race_bugs in
  check (found = total) "%s: %d/%d race-window bugs" label found total

let check_same_summary label (c : Campaign.t) reference =
  check (Proto.summary c = reference) "%s: summary differs from the reference run"
    label

(* -- workloads ------------------------------------------------------------ *)

(* One campaign (or serve round) as the user sees it. *)
type run = {
  wall : float;                 (* request -> full result *)
  cases : int;                  (* executed cluster representatives *)
  failed : int;                 (* of those, quarantined or lost *)
  ttfr : float;                 (* request -> first report in hand *)
}

type outcome = {
  run : run;
  results : Campaign.t list;    (* the assembled campaigns *)
  phases : float * float * float * float;
  (* profile, generate, execute, diagnose seconds *)
  fairness_err : float;         (* serve only *)
  steals : int;                 (* serve only *)
}

type workload = {
  setup : unit -> float;        (* one environment bring-up, seconds *)
  setup_samples : int;
  campaign : Obs.t option -> int -> outcome;
  (* campaign [i], checked; [Some obs] records the bench's spans there
     and hands [obs] to the campaign *)
  reference : unit -> unit;     (* equivalence checks against reference runs *)
}

let span obs name f =
  match obs with
  | None -> f ()
  | Some o -> Tracer.with_span o.Obs.tracer name f

let phases_of results =
  let total f = Stats.sum (List.map (fun (c : Campaign.t) -> f c.Campaign.timings) results) in
  ( total (fun t -> t.Campaign.profile_s),
    total (fun t -> t.Campaign.generate_s),
    total (fun t -> t.Campaign.execute_s),
    total (fun t -> t.Campaign.diagnose_s) )

let in_process_outcome ~wall ~ttfr (c : Campaign.t) =
  { run = { wall; cases = reps c; failed = failed_cases c; ttfr };
    results = [ c ];
    phases = phases_of [ c ];
    fairness_err = 0.0;
    steals = 0 }

(* An in-process bring-up (kernel boot and snapshot) takes microseconds,
   so many boots are sampled after every campaign. *)
let boot_samples = 41

let supervisor_setup options () =
  snd
    (timed (fun () ->
         ignore (Campaign.supervisor ~obs:Obs.nop options : Supervisor.t)))

(* Batch [Campaign.run]; [each] checks every campaign and [reference]
   receives the first campaign's summary. *)
let batch ~(options : int -> Campaign.options) ~each ~reference =
  let first = ref "" in
  let campaign obs i =
    let opts = { (options i) with Campaign.obs } in
    let c, wall =
      timed (fun () -> span obs "bench.campaign" (fun () -> Campaign.run opts))
    in
    let label = Printf.sprintf "campaign %d" i in
    check_campaign label c;
    each label c;
    if i = 0 then first := Proto.summary c;
    in_process_outcome ~wall ~ttfr:wall c
  in
  { setup = supervisor_setup (options 0); setup_samples = boot_samples; campaign;
    reference = (fun () -> reference !first) }

let dfia_stream seed =
  let options i =
    { Campaign.default_options with Campaign.seed = seed + i; corpus_size = 20_000 }
  in
  let first = ref "" in
  let campaign obs i =
    let opts = { (options i) with Campaign.obs } in
    let (s, c), wall =
      timed (fun () ->
          let s = span obs "bench.stream" (fun () -> Campaign.stream opts) in
          (s, span obs "bench.stream_result" (fun () -> Campaign.stream_result s)))
    in
    let label = Printf.sprintf "campaign %d" i in
    check_campaign label c;
    check_new_bugs label c;
    if i = 0 then first := Proto.summary c;
    let ttfr =
      match (Campaign.stream_stats s).Campaign.first_report_s with
      | Some t -> t
      | None -> check false "%s: no first report" label; wall
    in
    in_process_outcome ~wall ~ttfr c
  in
  { setup = supervisor_setup (options 0); setup_samples = boot_samples; campaign;
    reference =
      (fun () ->
        check_same_summary "streaming vs batch" (Campaign.run (options 0)) !first) }

let rand_hot seed =
  batch
    ~options:(fun i ->
      { Campaign.default_options with
        Campaign.seed = seed + i; corpus_size = 320; strategy = Cluster.Rand 100_000 })
    ~each:check_new_bugs ~reference:ignore

let rand_cold seed =
  let options i =
    { Campaign.default_options with
      Campaign.seed = seed + i; corpus_size = 12_000; strategy = Cluster.Rand 60_000 }
  in
  batch ~options ~each:(fun _ _ -> ())
    ~reference:(fun first ->
      check_same_summary "baseline cache on vs off"
        (Campaign.run { (options 0) with Campaign.baseline_cache = false })
        first)

let race_sched seed =
  batch
    ~options:(fun i ->
      { Campaign.default_options with
        Campaign.seed = seed + i; config = Config.v5_13_rw (); corpus_size = 320;
        schedules = 128 })
    ~each:(fun label c -> check_race_bugs label c; check_new_bugs label c)
    ~reference:ignore

(* -- serve-2t: two weighted tenants on a fresh 2-process scheduler -------- *)

let serve_procs = 2

let state_dir () = Printf.sprintf ".kitbench-state-%d" (Unix.getpid ())

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let serve_config dir =
  { Sched.default_config with
    Sched.sc_pool = { Pool.default_config with Pool.procs = serve_procs };
    sc_max_active = 2;
    sc_state_dir = Some dir;
    sc_checkpoint_every = 16 }

let serve_2t seed =
  let spec round name weight k =
    { Proto.default_spec with
      Proto.sp_name = name; sp_seed = seed + (2 * round) + k; sp_corpus_size = 320;
      sp_strategy = Cluster.Rand 1500; sp_weight = weight }
  in
  let delivered = ref [] in          (* (spec, summary) of every tenant *)
  let campaign obs round =
    let dir = state_dir () in
    let sched = Sched.create ?obs (serve_config dir) in
    Fun.protect
      ~finally:(fun () -> Sched.shutdown sched; remove_tree dir)
      (fun () ->
        let specs = [ spec round "heavy" 3 0; spec round "light" 1 1 ] in
        let t0 = now () in
        let waiting =
          List.map
            (fun sp ->
              (match span obs "bench.submit" (fun () -> Sched.request sched (Proto.Submit sp)) with
              | Proto.Accepted _ -> ()
              | _ -> check false "round %d: %s rejected" round sp.Proto.sp_name);
              (sp, now ()))
            specs
        in
        let waiting = ref waiting and first_results = ref None in
        while !waiting <> [] do
          span obs "bench.step" (fun () ->
              ignore (Sched.step sched ~timeout:0.2 : Unix.file_descr list));
          waiting :=
            List.filter
              (fun (sp, submitted) ->
                match
                  span obs "bench.results" (fun () ->
                      Sched.request sched (Proto.Results sp.Proto.sp_name))
                with
                | Proto.Not_ready _ -> true
                | Proto.Summary s ->
                  if !first_results = None then
                    first_results := Some (now () -. submitted);
                  delivered := (sp, s) :: !delivered;
                  false
                | _ ->
                  check false "round %d: %s returned no results" round
                    sp.Proto.sp_name;
                  false)
              !waiting
        done;
        let wall = now () -. t0 in
        let tenants = Sched.tenants sched in
        let results = List.filter_map Tenant.result tenants in
        List.iter
          (fun c -> check_campaign (Printf.sprintf "round %d" round) c)
          results;
        let statuses = List.map Tenant.status tenants in
        let contended = List.fold_left (fun a s -> a + s.Proto.ts_contended) 0 statuses in
        let heavy =
          List.fold_left
            (fun a s -> if s.Proto.ts_name = "heavy" then a + s.Proto.ts_contended else a)
            0 statuses
        in
        let share = if contended = 0 then 0.75 else float_of_int heavy /. float_of_int contended in
        let profile_s, generate_s, _, diagnose_s = phases_of results in
        { run =
            { wall;
              cases = List.fold_left (fun a c -> a + reps c) 0 results;
              failed = List.fold_left (fun a c -> a + failed_cases c) 0 results;
              ttfr = Option.value !first_results ~default:wall };
          results;
          (* the pool's execute phase is what the coordinator's round
             spent outside the tenants' in-process phases *)
          phases =
            (profile_s, generate_s, wall -. profile_s -. generate_s -. diagnose_s,
             diagnose_s);
          fairness_err = Float.abs (share -. 0.75);
          steals = List.fold_left (fun a s -> a + s.Proto.ts_steals) 0 statuses })
  in
  let setup () =
    let dir = state_dir () in
    let sched, dt = timed (fun () -> Sched.create (serve_config dir)) in
    Sched.shutdown sched;
    remove_tree dir;
    dt
  in
  { setup; setup_samples = 3; campaign;
    reference =
      (fun () ->
        List.iter
          (fun (sp, summary) ->
            check_same_summary
              ("serve tenant vs solo campaign, seed " ^ string_of_int sp.Proto.sp_seed)
              (Campaign.run (Proto.options_of_spec sp))
              summary)
          !delivered) }

let workload name seed =
  match name with
  | "dfia-stream" -> dfia_stream seed
  | "rand-hot" -> rand_hot seed
  | "rand-cold" -> rand_cold seed
  | "race-sched" -> race_sched seed
  | "serve-2t" -> serve_2t seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(* -- end-to-end run ----------------------------------------------------------- *)

let measure w ~seconds =
  let peak_kb = ref 0 and setups = ref [] in
  let t0 = now () in
  let rec loop i acc =
    if i >= min_campaigns && now () -. t0 >= seconds then List.rev acc
    else begin
      (* Each campaign starts on a collected heap, as in a fresh process;
         the previous campaign's garbage is not its cost. *)
      Gc.full_major ();
      let r = (w.campaign None i).run in
      Printf.eprintf "campaign %d: %d cases in %.3f s\n%!" i r.cases r.wall;
      (* Peak RSS after a fixed amount of work, so a faster run that
         fits more campaigns in does not read higher. *)
      if i + 1 = min_campaigns then peak_kb := Rss.peak_kb ();
      (* Bring-up samples are spread over the run, on a warm heap, so
         one noisy moment of the host cannot set their median. *)
      setups := List.init w.setup_samples (fun _ -> w.setup ()) @ !setups;
      loop (i + 1) (r :: acc)
    end
  in
  let runs = loop 0 [] in
  w.reference ();
  let each f = List.map f runs in
  let metrics =
    [ ("setup_s", Stats.median !setups);
      ("cases_per_s", Stats.fast_rate (each (fun r -> float_of_int r.cases /. r.wall)));
      ("turnaround_s", Stats.fast_time (each (fun r -> r.wall)));
      ("ttfr_s", Stats.fast_time (each (fun r -> r.ttfr)));
      ("peak_rss_mb", float_of_int !peak_kb /. 1024.0) ]
  in
  ( metrics,
    List.fold_left (fun a r -> a + r.cases) 0 runs,
    List.fold_left (fun a r -> a + r.failed) 0 runs )

(* -- traced run and replays ----------------------------------------------- *)

let trace_cap = 1 lsl 20

(* Lanes that run concurrently with the coordinating thread: domains,
   pool workers and open serve submissions. *)
let lane_attrs = [ "domain"; "worker"; "proc"; "submission" ]

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_v n) -> n
  | Some (Metrics.Gauge_v _ | Metrics.Hist_v _) | None -> 0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let pct q xs what =
  match Stats.percentile q xs with
  | Some v -> v
  | None ->
    check false "%s: too few samples (%d) for a p%.0f" what (List.length xs) (q *. 100.0);
    0.0

let us s = s *. 1e6

(* Corpus, profiling, access map and clustering of the traced campaign,
   each timed around its own public function. *)
let replay_front (c : Campaign.t) =
  let o = c.Campaign.options in
  let size = Array.length c.Campaign.corpus in
  let corpus, gen_s =
    timed (fun () -> Corpus.generate ~seed:o.Campaign.seed ~size)
  in
  let profiles, profile_s =
    timed (fun () -> Dataflow.profile_corpus o.Campaign.config o.Campaign.spec corpus)
  in
  let map, map_s = timed (fun () -> Dataflow.build_map profiles) in
  let g, cluster_s =
    timed (fun () ->
        Cluster.run o.Campaign.strategy ~seed:o.Campaign.seed ~corpus_size:size map)
  in
  check
    (List.equal
       (fun a b -> Testcase.compare a b = 0)
       g.Cluster.reps c.Campaign.generation.Cluster.reps)
    "replayed clustering differs from the campaign's";
  let accesses =
    Array.fold_left (fun a l -> a + List.length l) 0 profiles.Dataflow.accesses
  in
  let st = Accessmap.stats map in
  [ ("corpus.gen_s", gen_s);
    ("profile.busy_s", profile_s);
    ("profile.programs_per_s", float_of_int size /. profile_s);
    ("profile.accesses", float_of_int accesses);
    ("accessmap.build_s", map_s);
    ( "accessmap.entries",
      float_of_int (st.Accessmap.write_entries + st.Accessmap.read_entries) );
    ("cluster.busy_s", cluster_s);
    ("cluster.flows", float_of_int g.Cluster.df_total);
    ("cluster.clusters", float_of_int g.Cluster.clusters);
    ("cluster.reduction", ratio g.Cluster.df_total g.Cluster.clusters) ]

(* Every representative through a fresh runner, exactly the composition
   of [Runner.execute], then [Filter.classify]; each step timed. *)
let replay_runner (c : Campaign.t) =
  let o = c.Campaign.options in
  let env = Env.create o.Campaign.config in
  let runner = Runner.create ~reruns:o.Campaign.reruns ~obs:(Obs.create ()) env in
  let funnel = Filter.funnel_create () in
  let pair = ref 0.0 and base = ref 0.0 and mask = ref 0.0 and cmp = ref 0.0
  and apply = ref 0.0 and classify = ref 0.0 and per_case = ref [] in
  let add r t0 t1 = r := !r +. (t1 -. t0) in
  List.iter
    (fun (tc : Testcase.t) ->
      let sender = c.Campaign.corpus.(tc.Testcase.sender) in
      let receiver = c.Campaign.corpus.(tc.Testcase.receiver) in
      let t0 = now () in
      let trace_a = Runner.run_pair runner ~base:env.Env.base0 sender receiver in
      let t1 = now () in
      let trace_b = Runner.baseline_trace runner receiver in
      let t2 = now () in
      let raw_diffs = Compare.diff_trees trace_a trace_b in
      let t3 = now () in
      add pair t0 t1;
      add base t1 t2;
      add cmp t2 t3;
      let outcome =
        if raw_diffs = [] then
          { Runner.trace_a; trace_b; raw_diffs; masked_diffs = []; interfered = [] }
        else begin
          let m = Runner.nondet_mask runner receiver in
          let t4 = now () in
          let masked_a = Nondet.apply_mask m trace_a in
          let masked_b = Nondet.apply_mask m trace_b in
          let t5 = now () in
          let masked_diffs = Compare.diff_trees masked_a masked_b in
          let t6 = now () in
          add mask t3 t4;
          add apply t4 t5;
          add cmp t5 t6;
          { Runner.trace_a; trace_b; raw_diffs; masked_diffs;
            interfered = Compare.interfered_of_diffs masked_diffs }
        end
      in
      let t7 = now () in
      ignore
        (Filter.classify o.Campaign.spec ~testcase:tc ~sender ~receiver outcome funnel
          : Filter.verdict);
      let t8 = now () in
      add classify t7 t8;
      per_case := (t8 -. t0) :: !per_case)
    c.Campaign.generation.Cluster.reps;
  let f = c.Campaign.funnel in
  check
    (funnel.Filter.executed = f.Filter.executed
    && funnel.Filter.initial = f.Filter.initial
    && funnel.Filter.after_nondet = f.Filter.after_nondet
    && funnel.Filter.after_resource = f.Filter.after_resource)
    "replayed funnel differs from the campaign's";
  let n = List.length !per_case in
  let bh, bm, _ = Runner.baseline_cache_stats runner in
  let mh, mm, _ = Runner.mask_cache_stats runner in
  ( runner,
    env,
    [ ("case.count", float_of_int (reps c));
      ("case.busy_s", Stats.sum !per_case);
      ("case.p50_us", us (Stats.median !per_case));
      ("case.p90_us", us (pct 0.9 !per_case "case latency"));
      ("runner.executions_per_case", ratio (Runner.executions runner) n);
      ("runner.baseline_hit_ratio", ratio bh (bh + bm));
      ("runner.mask_hit_ratio", ratio mh (mh + mm));
      ("runner.run_pair_s", !pair);
      ("runner.baseline_s", !base);
      ("runner.mask_s", !mask);
      ("trace.compare_s", !cmp);
      ("trace.apply_mask_s", !apply);
      ("detect.classify_s", !classify) ] )

(* Algorithm 2 over the campaign's reports, counting re-tests. *)
let replay_diagnose (c : Campaign.t) =
  let o = c.Campaign.options in
  let sup = Campaign.supervisor ~obs:(Obs.create ()) o in
  let retests = ref 0 in
  let test ~sender ~receiver =
    incr retests;
    Filter.protected_interfered o.Campaign.spec receiver
      (Supervisor.test_interference sup ~sender ~receiver)
  in
  if o.Campaign.diagnose then
    List.iter
      (fun (r : Report.t) ->
        ignore
          (Diagnose.culprits ~test ~sender:r.Report.sender ~receiver:r.Report.receiver
             ~interfered:r.Report.interfered
            : Diagnose.pair list))
      c.Campaign.reports;
  [ ("diagnose.retests", float_of_int !retests) ]

(* Schedule search on a fixed sample of the campaign's representatives:
   POR classes, then one interleaved execution per non-sequential
   class. *)
let sched_replay_reps = 64
let sched_replay_seeds = 128

let replay_sched runner env (c : Campaign.t) =
  let sample =
    List.filteri (fun i _ -> i < sched_replay_reps) c.Campaign.generation.Cluster.reps
  in
  let classes_s = ref 0.0 and jobs = ref [] in
  List.iter
    (fun (tc : Testcase.t) ->
      let sender = c.Campaign.corpus.(tc.Testcase.sender) in
      let receiver = c.Campaign.corpus.(tc.Testcase.receiver) in
      let classes, dt =
        timed (fun () ->
            Runner.schedule_classes runner ~schedules:sched_replay_seeds ~sender
              ~receiver)
      in
      classes_s := !classes_s +. dt;
      List.iter
        (fun (cls : Runner.sched_class) ->
          if not cls.Runner.cls_sequential then
            jobs := (sender, receiver, List.hd cls.Runner.cls_seeds) :: !jobs)
        classes)
    sample;
  let runs =
    List.rev_map
      (fun (sender, receiver, seed) ->
        snd
          (timed (fun () ->
               match
                 Runner.run_interleaved runner ~schedule:(Kernel_sched.Seeded seed)
                   ~base:env.Env.base0 sender receiver
               with
               | _ -> ()
               | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) -> ())))
      !jobs
  in
  check (runs <> []) "schedule replay: no interleaved execution to time";
  let s = c.Campaign.sched in
  [ ("sched.executed", float_of_int s.Campaign.sched_executed);
    ("sched.pruned", float_of_int s.Campaign.sched_pruned);
    ( "sched.prune_ratio",
      ratio s.Campaign.sched_pruned (s.Campaign.sched_executed + s.Campaign.sched_pruned) );
    ("sched.classes_s", !classes_s);
    ("sched.interleaved_s", Stats.sum runs);
    ("sched.interleaved_p50_us", us (if runs = [] then 0.0 else Stats.median runs)) ]

(* Drain a queue of the workload's size (capped at one serve tenant's
   1500 jobs) with two workers, timing every claim. *)
let replay_jobqueue n =
  let q = Jobqueue.create () in
  for i = 0 to n - 1 do ignore (Jobqueue.submit q i : int) done;
  ignore (Jobqueue.assign_round_robin q ~workers:2 : (int * int) list array);
  let rec drain worker idle acc =
    if idle = 2 then acc
    else
      match timed (fun () -> Jobqueue.claim_next q ~worker) with
      | Some (id, _), dt ->
        Jobqueue.complete q id ();
        drain (1 - worker) 0 (dt :: acc)
      | None, _ -> drain (1 - worker) (idle + 1) acc
  in
  let claims = drain 0 0 [] in
  check (List.length claims = n) "jobqueue replay: %d of %d jobs claimed"
    (List.length claims) n;
  [ ("jobqueue.claim_p50_us", us (Stats.median claims));
    ("jobqueue.claim_p90_us", us (pct 0.9 claims "jobqueue claims")) ]

let print_table ~wall rows =
  Printf.eprintf "%-28s %8s %12s %8s\n" "self time (main lane)" "spans" "seconds" "share";
  List.iter
    (fun (r : Stats.row) ->
      Printf.eprintf "%-28s %8d %12.6f %7.2f%%\n" r.Stats.row r.Stats.count r.Stats.self_s
        (100.0 *. r.Stats.self_s /. wall))
    rows;
  Printf.eprintf "%-28s %8s %12.6f\n%!" "traced wall" "" wall

let traced w =
  let untraced () = (w.campaign None 0).run.wall in
  let before = untraced () in
  let obs = Obs.create ~tracer:(Tracer.create ~cap:trace_cap ()) () in
  Metrics.reset Metrics.default;
  Metrics.set_enabled Metrics.default true;
  let cpu0 = Unix.times () in
  let o = w.campaign (Some obs) 0 in
  let cpu1 = Unix.times () in
  Metrics.set_enabled Metrics.default false;
  let heap = Metrics.snapshot Metrics.default in
  let after = untraced () in
  w.reference ();
  let wall = o.run.wall in
  let tracer = obs.Obs.tracer in
  let tree =
    Spantree.build ~lane_attrs ~dropped:(Tracer.dropped tracer) (Tracer.events tracer)
  in
  let table = Stats.self_table ~wall (Stats.main_lane tree) in
  print_table ~wall table;
  let unaccounted =
    (List.find (fun r -> r.Stats.row = Stats.unaccounted) table).Stats.self_s
  in
  let coord =
    cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime
  and workers =
    cpu1.Unix.tms_cutime +. cpu1.Unix.tms_cstime -. cpu0.Unix.tms_cutime
    -. cpu0.Unix.tms_cstime
  in
  Printf.eprintf "cpu: coordinator %.3f s, pool workers %.3f s\n%!" coord workers;
  let c = List.hd o.results in
  let runner, env, runner_metrics = replay_runner c in
  let profile_s, generate_s, execute_s, diagnose_s = o.phases in
  let sup = List.map (fun (c : Campaign.t) -> c.Campaign.sup_stats) o.results in
  let sum_sup f = float_of_int (List.fold_left (fun a s -> a + f s) 0 sup) in
  let metrics =
    List.concat
      [ replay_front c;
        [ ("phase.profile_s", profile_s);
          ("phase.generate_s", generate_s);
          ("phase.execute_s", execute_s);
          ("phase.diagnose_s", diagnose_s) ];
        runner_metrics;
        [ ( "kernel.restore_replay_ratio",
            ratio (counter heap "heap.cells_restored") (counter heap "heap.cells_total") );
          ("sup.retries", sum_sup (fun s -> s.Supervisor.retries));
          ("sup.reboots", sum_sup (fun s -> s.Supervisor.reboots));
          ("sup.quarantined", float_of_int o.run.failed) ];
        replay_diagnose c;
        replay_sched runner env c;
        [ ("serve.coord_cpu_s", coord);
          ("serve.coord_share", coord /. (coord +. workers));
          ("serve.fairness_err", o.fairness_err);
          ("serve.steals", float_of_int o.steals) ];
        replay_jobqueue (min 1500 (reps c));
        [ ("trace.wall_s", wall);
          ("trace.events", float_of_int (Tracer.recorded tracer));
          ("trace.dropped", float_of_int (Tracer.dropped tracer));
          ("trace.overhead", (wall /. Float.min before after) -. 1.0);
          ("trace.unaccounted_share", unaccounted /. wall) ] ]
  in
  check (Tracer.dropped tracer = 0) "trace ring dropped %d events" (Tracer.dropped tracer);
  (metrics, o.run.cases, o.run.failed)

(* -- output ------------------------------------------------------------------- *)

let emit ~workload ~declared ~attempted ~failed values =
  let names l = List.sort String.compare l in
  if names (List.map fst values) <> names (List.map (fun m -> m.Catalog.name) declared)
  then failwith "kitbench: emitted metrics differ from the declared ones";
  let fields =
    List.map
      (fun (m : Catalog.metric) ->
        let name = Stats.json_string m.Catalog.name
        and v = Stats.json_number (List.assoc m.Catalog.name values)
        and unit_ = Stats.json_string m.Catalog.unit_ in
        Printf.printf "{\"workload\":%s,\"metric\":%s,\"value\":%s,\"unit\":%s}\n"
          (Stats.json_string workload) name v unit_;
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" name v unit_)
      declared
  in
  let correct = !failures = [] in
  List.iter (Printf.eprintf "check failed: %s\n") (List.rev !failures);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," fields);
  correct

let run_one name ~seed ~seconds ~trace =
  let w = workload name seed in
  let values, attempted, failed =
    if trace then traced w else measure w ~seconds
  in
  let declared = if trace then Catalog.layer_metrics else Catalog.end_to_end in
  emit ~workload:name ~declared ~attempted ~failed values

(* Every workload in its own process: a re-exec of this binary. *)
let run_all ~seed ~seconds ~trace =
  let ok name =
    let args =
      [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
    in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> Printf.eprintf "kitbench: workload %s failed\n%!" name; false
  in
  (* every workload runs, even after one fails *)
  List.for_all Fun.id (List.map ok Catalog.workloads)

let () =
  let workload = ref None and seed = ref Catalog.default_seed
  and seconds = ref default_seconds and trace = ref false in
  let usage = "kitbench.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [ ( "--workload",
        Arg.Symbol (Catalog.workloads, fun w -> workload := Some w),
        " run one workload in this process" );
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf "N base seed (default %d; holdout %d)" Catalog.default_seed
          Catalog.holdout_seed );
      ( "--seconds",
        Arg.Set_float seconds,
        Printf.sprintf "S minimum measured seconds (default %g)" default_seconds );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1"),
        " 1 = traced run reporting per-layer metrics" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let ok =
    match !workload with
    | Some name -> run_one name ~seed:!seed ~seconds:!seconds ~trace:!trace
    | None -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace
  in
  exit (if ok then 0 else 1)
