(* What the benchmark declares: its workloads, its end-to-end metrics and
   its per-layer metrics, each layer metric mapped to the end-to-end
   metric a change to that layer should move, the workloads where the
   layer does the work and the workloads where it does little (there the
   prediction is "no change"). BENCHMARK.json at the repository root
   mirrors the names, units and directions; the unit test checks that
   the two agree and that every reference resolves. *)

let default_seed = 7
let holdout_seed = 3

let workloads = [ "dfia-stream"; "rand-hot"; "rand-cold"; "race-sched"; "serve-2t" ]

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
}

let m name unit_ better =
  { name; unit_; higher_is_better = (better = `Higher) }

(* Measured with tracing off. [setup_s] is environment bring-up;
   [ttfr_s] equals [turnaround_s] where reports only arrive with the
   assembled result (batch campaigns). *)
let end_to_end =
  [ m "setup_s" "s" `Lower;
    m "cases_per_s" "1/s" `Higher;
    m "turnaround_s" "s" `Lower;
    m "ttfr_s" "s" `Lower;
    m "peak_rss_mb" "MB" `Lower ]

type layer_metric = {
  metric : metric;
  layer : string;               (* the modules the metric measures *)
  moves : string list;          (* end-to-end metrics it should shift *)
  works_on : string list;       (* workloads where the layer does the work *)
  bypass : string list;         (* workloads where it does little *)
}

let in_process = [ "dfia-stream"; "rand-hot"; "rand-cold"; "race-sched" ]

let group ~layer ~moves ~works_on ~bypass metrics =
  List.map (fun metric -> { metric; layer; moves; works_on; bypass }) metrics

(* A replayed layer is measured by running the traced campaign's own
   inputs through the layer's public functions, outside the campaign. *)
let replayed layer = layer ^ " (replay)"

let per_layer =
  List.concat
    [ group ~layer:(replayed "abi.Corpus.generate")
        ~moves:[ "cases_per_s"; "ttfr_s" ] ~works_on:[ "dfia-stream" ]
        ~bypass:[ "rand-hot" ]
        [ m "corpus.gen_s" "s" `Lower ];
      group ~layer:(replayed "gen.Dataflow.profile_corpus + profile.Collect")
        ~moves:[ "cases_per_s"; "ttfr_s" ] ~works_on:[ "dfia-stream" ]
        ~bypass:[ "rand-hot"; "race-sched" ]
        [ m "profile.busy_s" "s" `Lower;
          m "profile.programs_per_s" "1/s" `Higher;
          m "profile.accesses" "count" `Lower ];
      group ~layer:(replayed "profile.Accessmap (Dataflow.build_map)")
        ~moves:[ "cases_per_s"; "peak_rss_mb" ] ~works_on:[ "rand-cold" ]
        ~bypass:[ "rand-hot" ]
        [ m "accessmap.build_s" "s" `Lower;
          m "accessmap.entries" "count" `Lower ];
      group ~layer:(replayed "gen.Cluster.run")
        ~moves:[ "cases_per_s"; "ttfr_s" ]
        ~works_on:[ "dfia-stream"; "rand-cold" ] ~bypass:[ "rand-hot" ]
        [ m "cluster.busy_s" "s" `Lower;
          m "cluster.flows" "count" `Lower;
          m "cluster.clusters" "count" `Lower;
          m "cluster.reduction" "ratio" `Higher ];
      group ~layer:"core.Pipeline phases in core.Campaign"
        ~moves:[ "cases_per_s"; "turnaround_s" ] ~works_on:workloads ~bypass:[]
        [ m "phase.profile_s" "s" `Lower;
          m "phase.generate_s" "s" `Lower;
          m "phase.execute_s" "s" `Lower;
          m "phase.diagnose_s" "s" `Lower ];
      group ~layer:(replayed "exec.Runner.execute composition")
        ~moves:[ "cases_per_s" ] ~works_on:[ "rand-hot"; "rand-cold" ]
        ~bypass:[ "dfia-stream"; "serve-2t" ]
        [ m "case.count" "count" `Lower;
          m "case.busy_s" "s" `Lower;
          m "case.p50_us" "us" `Lower;
          m "case.p90_us" "us" `Lower ];
      group ~layer:(replayed "exec.Runner baseline and mask caches")
        ~moves:[ "cases_per_s" ] ~works_on:[ "rand-cold" ]
        ~bypass:[ "rand-hot" ]
        [ m "runner.executions_per_case" "ratio" `Lower;
          m "runner.baseline_hit_ratio" "ratio" `Higher;
          m "runner.mask_hit_ratio" "ratio" `Higher ];
      group ~layer:(replayed "exec.Runner executions")
        ~moves:[ "cases_per_s" ] ~works_on:[ "rand-hot" ]
        ~bypass:[ "dfia-stream" ]
        [ m "runner.run_pair_s" "s" `Lower;
          m "runner.baseline_s" "s" `Lower;
          m "runner.mask_s" "s" `Lower ];
      group ~layer:"kernel.Heap incremental restore" ~moves:[ "cases_per_s" ]
        ~works_on:[ "rand-hot"; "race-sched" ] ~bypass:[ "dfia-stream" ]
        [ m "kernel.restore_replay_ratio" "ratio" `Lower ];
      group ~layer:(replayed "trace.Compare, trace.Nondet")
        ~moves:[ "cases_per_s" ] ~works_on:[ "rand-hot" ]
        ~bypass:[ "dfia-stream" ]
        [ m "trace.compare_s" "s" `Lower; m "trace.apply_mask_s" "s" `Lower ];
      group ~layer:(replayed "detect.Filter.classify")
        ~moves:[ "cases_per_s" ] ~works_on:[ "rand-hot" ]
        ~bypass:[ "dfia-stream" ]
        [ m "detect.classify_s" "s" `Lower ];
      group ~layer:"exec.Supervisor" ~moves:[ "cases_per_s" ]
        ~works_on:workloads ~bypass:[]
        [ m "sup.retries" "count" `Lower;
          m "sup.reboots" "count" `Lower;
          m "sup.quarantined" "count" `Lower ];
      group ~layer:(replayed "report.Diagnose.culprits")
        ~moves:[ "cases_per_s"; "turnaround_s" ] ~works_on:[ "rand-hot" ]
        ~bypass:[ "race-sched" ]
        [ m "diagnose.retests" "count" `Lower ];
      group ~layer:"exec.Runner schedule search + kernel.Sched"
        ~moves:[ "cases_per_s" ] ~works_on:[ "race-sched" ]
        ~bypass:[ "dfia-stream"; "rand-hot"; "rand-cold"; "serve-2t" ]
        [ m "sched.executed" "count" `Lower;
          m "sched.pruned" "count" `Higher;
          m "sched.prune_ratio" "ratio" `Higher ];
      group ~layer:(replayed "exec.Runner schedule search + kernel.Sched")
        ~moves:[ "cases_per_s" ] ~works_on:[ "race-sched" ]
        ~bypass:[ "dfia-stream"; "rand-hot"; "rand-cold"; "serve-2t" ]
        [ m "sched.classes_s" "s" `Lower;
          m "sched.interleaved_s" "s" `Lower;
          m "sched.interleaved_p50_us" "us" `Lower ];
      group ~layer:"serve.Sched + serve.Pool parent (CPU self vs children)"
        ~moves:[ "turnaround_s"; "cases_per_s" ] ~works_on:[ "serve-2t" ]
        ~bypass:in_process
        [ m "serve.coord_cpu_s" "s" `Lower; m "serve.coord_share" "ratio" `Lower ];
      group ~layer:"serve.Sched deficit round robin" ~moves:[ "turnaround_s" ]
        ~works_on:[ "serve-2t" ] ~bypass:in_process
        [ m "serve.fairness_err" "ratio" `Lower; m "serve.steals" "count" `Lower ];
      group ~layer:(replayed "core.Jobqueue claim") ~moves:[ "turnaround_s" ]
        ~works_on:[ "serve-2t" ] ~bypass:in_process
        [ m "jobqueue.claim_p50_us" "us" `Lower;
          m "jobqueue.claim_p90_us" "us" `Lower ];
      group ~layer:"the bench's own tracing" ~moves:[] ~works_on:workloads
        ~bypass:[]
        [ m "trace.wall_s" "s" `Lower;
          m "trace.events" "count" `Lower;
          m "trace.dropped" "count" `Lower;
          m "trace.overhead" "ratio" `Lower;
          m "trace.unaccounted_share" "ratio" `Lower ] ]

let layer_metrics = List.map (fun l -> l.metric) per_layer
