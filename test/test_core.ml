(* Tests for the top-level pipeline: attribution oracle, known-bug
   reproduction, end-to-end campaigns and the table generators. *)

module K = Kit_kernel
module Campaign = Kit_core.Campaign
module Oracle = Kit_core.Oracle
module Known_bugs = Kit_core.Known_bugs
module Tables = Kit_core.Tables
module Cluster = Kit_gen.Cluster
module Aggregate = Kit_report.Aggregate
module Signature = Kit_report.Signature
module Spec = Kit_spec.Spec
module Filter = Kit_detect.Filter
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let sig_ name details = { Signature.name; details }

(* --- Oracle ---------------------------------------------------------------- *)

(* The attribution of a culprit signature pair: a keyed report whose
   report the oracle does not read. *)
let attribute ~sender ~receiver =
  let empty = Kit_abi.Program.make [] in
  Oracle.attribute_keyed
    { Aggregate.report =
        { Kit_detect.Report.testcase =
            { Kit_gen.Testcase.sender = 0; receiver = 0; flow = None };
          sender = empty; receiver = empty; interfered = []; diffs = [];
          origin = Kit_detect.Report.Sequential };
      pairs = []; sender_sig = sender; receiver_sig = receiver }

let check_attr expected sender receiver =
  let got = attribute ~sender ~receiver in
  check_bool
    (Printf.sprintf "%s -> %s" (Signature.to_string sender)
       (Signature.to_string receiver))
    true (expected = got)

let test_oracle_new_bugs () =
  check_attr (Oracle.Bug K.Bugs.B1_ptype_leak)
    (sig_ "socket" [ "AF_PACKET" ])
    (sig_ "read" [ "/proc/net/ptype" ]);
  check_attr (Oracle.Bug K.Bugs.B2_flowlabel_send)
    (sig_ "flowlabel_request" [ "AF_INET6" ])
    (sig_ "send" [ "AF_INET6" ]);
  check_attr (Oracle.Bug K.Bugs.B3_rds_bind)
    (sig_ "bind" [ "AF_RDS" ])
    (sig_ "bind" [ "AF_RDS" ]);
  check_attr (Oracle.Bug K.Bugs.B4_flowlabel_connect)
    (sig_ "flowlabel_request" [ "AF_INET6" ])
    (sig_ "connect" [ "AF_INET6" ]);
  check_attr (Oracle.Bug K.Bugs.B5_sockstat_tcp)
    (sig_ "socket" [ "AF_INET_TCP" ])
    (sig_ "read" [ "/proc/net/sockstat" ]);
  check_attr (Oracle.Bug K.Bugs.B6_cookie)
    (sig_ "get_cookie" [ "AF_PACKET" ])
    (sig_ "get_cookie" [ "AF_INET_TCP" ]);
  check_attr (Oracle.Bug K.Bugs.B7_sctp_assoc)
    (sig_ "sctp_assoc" [ "AF_SCTP" ])
    (sig_ "sctp_assoc" [ "AF_SCTP" ]);
  check_attr (Oracle.Bug K.Bugs.B8_protomem_sockstat)
    (sig_ "alloc_protomem" [ "AF_INET_UDP" ])
    (sig_ "read" [ "/proc/net/sockstat" ]);
  check_attr (Oracle.Bug K.Bugs.B9_protomem_protocols)
    (sig_ "alloc_protomem" [ "AF_INET_UDP" ])
    (sig_ "read" [ "/proc/net/protocols" ])

let test_oracle_known_bugs () =
  check_attr (Oracle.Bug K.Bugs.KA_prio_user)
    (sig_ "setpriority" [ "PRIO_USER" ])
    (sig_ "getpriority" [ "PRIO_USER" ]);
  check_attr (Oracle.Bug K.Bugs.KB_uevent)
    (sig_ "netdev_create" [])
    (sig_ "uevent_recv" [ "AF_NETLINK_UEVENT" ]);
  check_attr (Oracle.Bug K.Bugs.KC_ipvs)
    (sig_ "ipvs_add_service" [])
    (sig_ "read" [ "/proc/net/ip_vs" ]);
  check_attr (Oracle.Bug K.Bugs.KD_conntrack_max)
    (sig_ "sysctl_write" [ "net/nf_conntrack_max" ])
    (sig_ "sysctl_read" [ "net/nf_conntrack_max" ]);
  check_attr (Oracle.Bug K.Bugs.KE_iouring_mount)
    (sig_ "creat" [ "/tmp/kit0" ])
    (sig_ "io_uring_read" [ "/tmp/kit0" ])

let test_oracle_false_positives () =
  check_attr (Oracle.False_positive "minor-dev")
    (sig_ "open" [ "/proc/net/ptype" ])
    (sig_ "fstat" [ "/proc/net/sockstat" ]);
  check_attr (Oracle.False_positive "crypto")
    (sig_ "af_alg_bind" [ "AF_ALG" ])
    (sig_ "read" [ "/proc/crypto" ])

let test_oracle_under_investigation () =
  check_attr Oracle.Under_investigation
    (sig_ "socket" [ "AF_PACKET" ])
    (sig_ "read" [ "/proc/slabinfo" ]);
  check_attr Oracle.Under_investigation
    (sig_ "getpid" [])
    (sig_ "gethostname" [])

(* --- Known bugs -------------------------------------------------------------- *)

let test_known_bugs_reproduce_5_of_7 () =
  let outcomes = Known_bugs.reproduce_all () in
  check_int "paper reproduces 5/7" 5 (Known_bugs.detected_count outcomes);
  check_bool "every case as expected" true
    (List.for_all (fun o -> o.Known_bugs.as_expected) outcomes)

(* The documented cases, read off their reproduction. *)
let known_bug_cases =
  lazy (List.map (fun o -> o.Known_bugs.case) (Known_bugs.reproduce_all ()))

let test_known_bugs_case_list () =
  let cases = Lazy.force known_bug_cases in
  check_int "seven documented cases" 7 (List.length cases);
  let labels = List.map (fun c -> c.Known_bugs.label) cases in
  check (Alcotest.list Alcotest.string) "labels"
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ] labels

let test_known_bug_kernel_versions () =
  List.iter
    (fun case ->
      check Alcotest.string
        (Printf.sprintf "case %s version" case.Known_bugs.label)
        (K.Bugs.known_bug_version case.Known_bugs.bug)
        case.Known_bugs.kernel)
    (Lazy.force known_bug_cases)

(* --- Campaign ------------------------------------------------------------------ *)

(* One shared small campaign for the expensive end-to-end assertions. *)
let small_campaign =
  lazy
    (Campaign.run
       { Campaign.default_options with Campaign.corpus_size = 160 })

let test_campaign_finds_all_new_bugs () =
  let c = Lazy.force small_campaign in
  let found = Oracle.new_bugs_found c.Campaign.keyed in
  check_int "9/9 bugs" 9 (List.length found)

let test_campaign_funnel_shape () =
  let c = Lazy.force small_campaign in
  let f = c.Campaign.funnel in
  check_bool "executed >= initial" true (f.Filter.executed >= f.Filter.initial);
  check_bool "initial > after nondet" true
    (f.Filter.initial > f.Filter.after_nondet);
  check_bool "after nondet >= after resource" true
    (f.Filter.after_nondet >= f.Filter.after_resource);
  check_int "reports = funnel tail" f.Filter.after_resource
    (List.length c.Campaign.reports)

let test_campaign_aggregation_shrinks () =
  let c = Lazy.force small_campaign in
  check_bool "AGG-RS fewer than reports" true
    (List.length c.Campaign.agg_rs <= List.length c.Campaign.reports);
  check_bool "AGG-R fewer or equal to AGG-RS" true
    (List.length c.Campaign.agg_r <= List.length c.Campaign.agg_rs);
  check_bool "groups partition the reports" true
    (List.fold_left
       (fun acc (g : Aggregate.group) -> acc + List.length g.Aggregate.members)
       0 c.Campaign.agg_rs
    = List.length c.Campaign.keyed)

let test_campaign_deterministic () =
  let opts = { Campaign.default_options with Campaign.corpus_size = 64 } in
  let a = Campaign.run opts in
  let b = Campaign.run opts in
  check_int "same cluster count" a.Campaign.generation.Cluster.clusters
    b.Campaign.generation.Cluster.clusters;
  check_int "same report count"
    (List.length a.Campaign.reports)
    (List.length b.Campaign.reports)

let test_campaign_fixed_kernel_clean () =
  (* On the fully fixed kernel the campaign must report no genuine bug;
     only the unprotected-by-design channels can remain. *)
  let c =
    Campaign.run
      { Campaign.default_options with
        Campaign.corpus_size = 120;
        config = K.Config.fixed () }
  in
  let found = Oracle.new_bugs_found c.Campaign.keyed in
  check_int "no bugs on fixed kernel" 0 (List.length found)

let test_campaign_rand_weaker () =
  let prepared =
    Campaign.prepare { Campaign.default_options with Campaign.corpus_size = 160 }
  in
  let ia = Campaign.execute_prepared ~strategy:Cluster.Df_ia prepared in
  let rand =
    Campaign.execute_prepared
      ~strategy:(Cluster.Rand ia.Campaign.generation.Cluster.clusters)
      prepared
  in
  let n_ia = List.length (Oracle.new_bugs_found ia.Campaign.keyed) in
  let n_rand = List.length (Oracle.new_bugs_found rand.Campaign.keyed) in
  check_bool "equal-budget RAND finds fewer bugs" true (n_rand < n_ia)

(* --- Streaming campaigns ---------------------------------------------------------- *)

(* RAND pairs execute in [stream_result], not while feeding; they count
   as executed cases and can be the first report all the same. *)
let test_stream_stats_shape () =
  List.iter
    (fun strategy ->
      let opts =
        { Campaign.default_options with Campaign.corpus_size = 48; strategy }
      in
      let s = Campaign.stream opts in
      let t = Campaign.stream_result s in
      let stats = Campaign.stream_stats s in
      check_int "every program folded" 48 stats.Campaign.fed;
      check_bool "executions cover every cluster plus re-runs" true
        (stats.Campaign.executed_cases
        >= t.Campaign.generation.Cluster.clusters);
      check_bool "first report observed" true
        (Option.is_some stats.Campaign.first_report_s
        = (t.Campaign.reports <> []));
      check_bool "peak feed working set bounded by df_total" true
        (stats.Campaign.peak_feed_pairs <= t.Campaign.df_total))
    [ Cluster.Df_ia; Cluster.Rand 40 ]

(* A counter of [obs]'s registry, 0 when it was never interned. *)
let counter obs name =
  match List.assoc_opt name (Obs.snapshot obs) with
  | Some (Metrics.Counter_v v) -> v
  | _ -> 0

let test_stream_result_idempotent () =
  let opts = { Campaign.default_options with Campaign.corpus_size = 32 } in
  let s = Campaign.stream opts in
  let a = Campaign.stream_result s in
  let execs = (Campaign.stream_stats s).Campaign.executed_cases in
  let kernel = counter a.Campaign.obs "exec.executions" in
  let b = Campaign.stream_result s in
  check_int "no re-execution on re-assembly" execs
    (Campaign.stream_stats s).Campaign.executed_cases;
  check_int "no kernel execution on re-assembly, diagnosis included" kernel
    (counter a.Campaign.obs "exec.executions");
  check_int "same reports" (List.length a.Campaign.reports)
    (List.length b.Campaign.reports);
  check_int "same df_total" a.Campaign.df_total b.Campaign.df_total

let test_extend_rejects_negative () =
  let opts = { Campaign.default_options with Campaign.corpus_size = 16 } in
  let s = Campaign.stream opts in
  Alcotest.check_raises "negative growth rejected"
    (Invalid_argument "Campaign.extend: add must be non-negative") (fun () ->
      ignore (Campaign.extend s ~add:(-1)))

(* Logging is bookkeeping: with a log saved after every case, a
   campaign does exactly the work of one without — the same results and
   the same execution count, diagnosis included — and the log is gone
   once the result is built. *)
let test_log_changes_nothing () =
  let options =
    { Campaign.default_options with Campaign.corpus_size = 48; seed = 11 }
  in
  let plain = Campaign.run options in
  Resume.with_path "kit-core" (fun path ->
      match Resume.run_process ~every:1 path options with
      | _, None -> Alcotest.fail "an unkilled process must finish"
      | _, Some logged ->
        check_bool "same reports and funnel" true
          (logged.Campaign.funnel = plain.Campaign.funnel
          && List.length logged.Campaign.reports
             = List.length plain.Campaign.reports
          && List.length logged.Campaign.keyed
             = List.length plain.Campaign.keyed);
        check_int "same executions" plain.Campaign.executions
          logged.Campaign.executions;
        check_bool "log deleted" false (Sys.file_exists path))

(* A log written before case results carried culprits: a diagnosed
   campaign's log with every entry's culprits stripped. Resumed, exactly
   the entries holding reports run again — the rest replay — and the
   summary is the straight run's. *)
let test_resume_without_culprits () =
  let options =
    { Campaign.default_options with Campaign.corpus_size = 48; seed = 11 }
  in
  Resume.with_path "kit-culprits" (fun path ->
      let prepared = Campaign.prepare options in
      let generation = Campaign.generate_prepared prepared in
      let reps = generation.Cluster.reps in
      let log = Resume.open_log ~every:1 path options in
      let stripped =
        { log with
          Campaign.record =
            (fun tc r execs ->
              log.Campaign.record tc
                { r with Campaign.cr_culprits = None } execs) }
      in
      (match
         Campaign.drive
           (Campaign.start
              ~log:(Resume.killed_after (List.length reps) stripped)
              prepared generation)
       with
      | _ -> Alcotest.fail "the campaign must be killed"
      | exception Resume.Killed -> ());
      let log = Resume.open_log ~every:1 path options in
      let reported =
        List.concat
          (List.mapi
             (fun i tc ->
               match log.Campaign.replay i tc with
               | Some (r, _) when r.Campaign.cr_report <> None -> [ i ]
               | Some _ -> []
               | None -> Alcotest.failf "case %d was not logged" i)
             reps)
      in
      check_bool "the log holds reports" true (reported <> []);
      let prepared = Campaign.prepare options in
      let run =
        Campaign.start ~log prepared (Campaign.generate_prepared prepared)
      in
      check_int "every other entry replays"
        (List.length reps - List.length reported)
        (Campaign.run_replayed run);
      check (Alcotest.list Alcotest.int) "the reported cases run again"
        reported
        (List.map fst (Campaign.todo run));
      check Alcotest.string "summary = straight run"
        (Kit_serve.Proto.summary (Campaign.run options))
        (Kit_serve.Proto.summary (Campaign.drive run)))

(* [finish] is a fold: on a run whose cases all completed, it executes
   nothing and boots nothing, with or without a supervisor. *)
let test_finish_runs_no_kernel () =
  let obs = Obs.create () in
  let options =
    { Campaign.default_options with
      Campaign.corpus_size = 48; seed = 11; obs = Some obs }
  in
  let prepared = Campaign.prepare options in
  let corpus = Campaign.prepared_corpus prepared in
  let sup = Campaign.supervisor ~obs options in
  List.iter
    (fun finish ->
      let run = Campaign.start prepared (Campaign.generate_prepared prepared) in
      List.iter
        (fun (i, tc) ->
          Campaign.complete run i (Campaign.exec_case options corpus sup tc) 0)
        (Campaign.todo run);
      let executions = counter obs "exec.executions"
      and attempts = counter obs "sup.attempts" in
      let c = finish run in
      check_bool "reports to diagnose" true (c.Campaign.reports <> []);
      check_int "every report keyed" (List.length c.Campaign.reports)
        (List.length c.Campaign.keyed);
      check_int "no execution" executions (counter obs "exec.executions");
      check_int "no supervised attempt" attempts (counter obs "sup.attempts"))
    [ Campaign.finish ~sup; Campaign.finish ?sup:None ]

(* --- Tables ----------------------------------------------------------------------- *)

let test_table2_rows () =
  let _, rendered = Tables.table2 (Lazy.force small_campaign) in
  let numbers =
    List.filter_map
      (fun line -> int_of_string_opt (List.hd (String.split_on_char ' ' line)))
      (String.split_on_char '\n' rendered)
  in
  check_int "nine rows" 9 (List.length numbers);
  check (Alcotest.list Alcotest.int) "numbered 1..9"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] numbers

let test_table2_marks_found () =
  let c = Lazy.force small_campaign in
  let found, rendered = Tables.table2 c in
  check_int "all found" 9 (List.length found);
  check_bool "no missed rows" false
    (let rec contains_missed i =
       i >= 0
       && (String.length rendered - i >= 6
           && String.equal (String.sub rendered i 6) "missed"
          || contains_missed (i - 1))
     in
     contains_missed (String.length rendered - 6))

let test_table6_totals () =
  let c = Lazy.force small_campaign in
  let data, _ = Tables.table6 c in
  let reports_total = List.fold_left (fun acc d -> acc + d.Tables.reports) 0 data in
  check_int "columns partition all reports" (List.length c.Campaign.keyed)
    reports_total

let test_table5_renders () =
  let c = Lazy.force small_campaign in
  check_bool "mentions executed" true
    (String.length (Tables.table5 c) > 0)

let test_performance_renders () =
  let c = Lazy.force small_campaign in
  check_bool "non-empty" true (String.length (Tables.performance c) > 0)

(* --- Paper shape at corpus 320 ------------------------------------------------

   Table 4's ratios and the three ablations, read through the [Tables]
   rows at three seeds. Corpus 320 because at 96, RAND under jump labels
   reaches no flow-label bug at seeds 7, 11, 3 or 1. *)

let shape_options seed =
  { Campaign.default_options with Campaign.seed; corpus_size = 320 }

let shape_seeds = [ 7; 11; 3 ]

let per_seed f = List.map (fun seed -> (seed, lazy (f seed))) shape_seeds

let table4_by_seed =
  per_seed (fun seed ->
      let rows, _, _ = Tables.table4 (shape_options seed) in
      rows)

let jump_label_by_seed =
  per_seed (fun seed -> fst (Tables.jump_label (shape_options seed)))

let spec_by_seed =
  per_seed (fun seed -> fst (Tables.spec_refinement (shape_options seed)))

let each_seed table f =
  List.iter
    (fun (seed, rows) -> f (Printf.sprintf "seed %d" seed) (Lazy.force rows))
    table

let table4_rows what rows =
  match rows with
  | [ ia; st1; st2; rand; df ] -> (ia, st1, st2, rand, df)
  | _ -> Alcotest.failf "%s: Table 4 has five rows" what

let check_within what lo hi x =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: %.2f outside [%.2f, %.2f]" what x lo hi

(* The paper's ratios are 2.9 and 2.0; each must hold within 20%. *)
let test_table4_ratios () =
  each_seed table4_by_seed (fun what rows ->
      let ia, st1, st2, _, _ = table4_rows what rows in
      let ratio (a : Tables.strategy_row) (b : Tables.strategy_row) =
        float_of_int a.Tables.test_cases /. float_of_int b.Tables.test_cases
      in
      check_within (what ^ " DF-ST-1/DF-IA") 2.32 3.48 (ratio st1 ia);
      check_within (what ^ " DF-ST-2/DF-ST-1") 1.6 2.4 (ratio st2 st1))

let test_table4_bug_counts () =
  each_seed table4_by_seed (fun what rows ->
      let ia, st1, st2, rand, df = table4_rows what rows in
      let found (r : Tables.strategy_row) = List.length r.Tables.bugs_found in
      check_int (what ^ " DF-IA 9/9") 9 (found ia);
      check_int (what ^ " DF-ST-1 9/9") 9 (found st1);
      check_int (what ^ " DF-ST-2 9/9") 9 (found st2);
      check_bool (what ^ " RAND finds fewer") true (found rand < 9);
      check_int (what ^ " RAND budget is 1.3x DF-ST-2")
        (max 32 (st2.Tables.test_cases * 13 / 10))
        rand.Tables.test_cases;
      check_bool (what ^ " DF is at least 100x DF-IA") true
        (df.Tables.test_cases >= 100 * ia.Tables.test_cases))

let is_flow_label b =
  K.Bugs.equal b K.Bugs.B2_flowlabel_send
  || K.Bugs.equal b K.Bugs.B4_flowlabel_connect

let test_jump_label_ablation () =
  each_seed jump_label_by_seed (fun what rows ->
      match rows with
      | [ ia; rand ] ->
        check
          (Alcotest.list Alcotest.string)
          (what ^ " DF-IA misses exactly #2 and #4")
          [ "bug#2-flowlabel-send"; "bug#4-flowlabel-connect" ]
          (List.map K.Bugs.to_string
             (List.filter
                (fun b ->
                  not (List.exists (K.Bugs.equal b) ia.Tables.bugs_found))
                K.Bugs.new_bugs));
        check_int (what ^ " RAND budget is 4x the corpus") 1280
          rand.Tables.test_cases;
        check_bool (what ^ " RAND finds a flow-label bug") true
          (List.exists is_flow_label rand.Tables.bugs_found)
      | _ -> Alcotest.failf "%s: two rows" what)

let test_spec_refinement_ablation () =
  each_seed spec_by_seed (fun what classes ->
      let bugs =
        List.filter
          (fun (c : Tables.report_class) ->
            String.starts_with ~prefix:"bug#" c.Tables.attribution)
          classes
      in
      check_int (what ^ " 9/9 bugs")
        9
        (List.length
           (List.sort_uniq compare
              (List.map (fun c -> c.Tables.attribution) bugs)));
      let total get = List.fold_left (fun acc c -> acc + get c) 0 classes in
      check_int (what ^ " default reports") 35
        (total (fun c -> c.Tables.default_reports));
      check_int (what ^ " refined reports") 31
        (total (fun c -> c.Tables.refined_reports));
      let row (c : Tables.report_class) =
        Printf.sprintf "%s %s %d->%d" c.Tables.attribution c.Tables.receiver
          c.Tables.default_reports c.Tables.refined_reports
      in
      (* Every other class, each bug's included, keeps its count. *)
      let changed =
        List.filter
          (fun c -> c.Tables.default_reports <> c.Tables.refined_reports)
          classes
      in
      check
        (Alcotest.list Alcotest.string)
        (what ^ " only the /proc/crypto and /proc/slabinfo reports go")
        [ "FP:crypto read[/proc/crypto] 2->0"; "UI read[/proc/slabinfo] 2->0" ]
        (List.map row changed);
      let kept =
        List.filter
          (fun c ->
            List.mem c.Tables.receiver [ "af_alg_bind[AF_ALG]"; "msgget" ])
          classes
      in
      check
        (Alcotest.list Alcotest.string)
        (what ^ " the af_alg_bind and msgget reports stay")
        [ "FP:crypto af_alg_bind[AF_ALG] 2->2"; "UI msgget 9->9" ]
        (List.map row kept))

(* test_ext pins the behaviour; this checks the row reports it. *)
let test_bounds_ablation () =
  match fst (Tables.bounds ()) with
  | [ buggy; fixed ] ->
    check Alcotest.string "buggy kernel" "5.13" buggy.Tables.kernel;
    check_bool "raw divergence" true (buggy.Tables.raw_diffs > 0);
    check_int "masked away" 0 buggy.Tables.masked_diffs;
    check_bool "bounds detector flags it" true (buggy.Tables.violations > 0);
    check Alcotest.string "control kernel" "fixed" fixed.Tables.kernel;
    check_int "fixed kernel clean" 0 fixed.Tables.violations
  | _ -> Alcotest.fail "two rows"

let suite =
  [
    Alcotest.test_case "oracle: new bugs" `Quick test_oracle_new_bugs;
    Alcotest.test_case "oracle: known bugs" `Quick test_oracle_known_bugs;
    Alcotest.test_case "oracle: false positives" `Quick
      test_oracle_false_positives;
    Alcotest.test_case "oracle: under investigation" `Quick
      test_oracle_under_investigation;
    Alcotest.test_case "known bugs: 5/7 reproduced" `Quick
      test_known_bugs_reproduce_5_of_7;
    Alcotest.test_case "known bugs: case list" `Quick test_known_bugs_case_list;
    Alcotest.test_case "known bugs: kernel versions consistent" `Quick
      test_known_bug_kernel_versions;
    Alcotest.test_case "campaign: finds all nine bugs" `Slow
      test_campaign_finds_all_new_bugs;
    Alcotest.test_case "campaign: funnel shape" `Slow test_campaign_funnel_shape;
    Alcotest.test_case "campaign: aggregation shrinks" `Slow
      test_campaign_aggregation_shrinks;
    Alcotest.test_case "campaign: deterministic" `Slow
      test_campaign_deterministic;
    Alcotest.test_case "campaign: fixed kernel reports no bugs" `Slow
      test_campaign_fixed_kernel_clean;
    Alcotest.test_case "campaign: equal-budget RAND weaker" `Slow
      test_campaign_rand_weaker;
    Alcotest.test_case "stream: stats shape" `Slow test_stream_stats_shape;
    Alcotest.test_case "stream: assembly idempotent" `Slow
      test_stream_result_idempotent;
    Alcotest.test_case "stream: negative growth rejected" `Quick
      test_extend_rejects_negative;
    Alcotest.test_case "campaign: a log changes no result or execution count"
      `Quick test_log_changes_nothing;
    Alcotest.test_case "tables: table 2 static rows" `Quick test_table2_rows;
    Alcotest.test_case "tables: table 2 marks all found" `Slow
      test_table2_marks_found;
    Alcotest.test_case "tables: table 6 totals" `Slow test_table6_totals;
    Alcotest.test_case "tables: table 5 renders" `Slow test_table5_renders;
    Alcotest.test_case "tables: performance renders" `Slow
      test_performance_renders;
    Alcotest.test_case "tables: table 4 ratios within 20% of the paper" `Slow
      test_table4_ratios;
    Alcotest.test_case "tables: table 4 bug counts and budgets" `Slow
      test_table4_bug_counts;
    Alcotest.test_case "ablation: jump labels hide bugs #2 and #4" `Slow
      test_jump_label_ablation;
    Alcotest.test_case "ablation: refined spec drops only /proc FPs" `Slow
      test_spec_refinement_ablation;
    Alcotest.test_case "ablation: bounds detector row" `Quick
      test_bounds_ablation;
    Alcotest.test_case "campaign: a log without culprits re-runs its reports"
      `Quick test_resume_without_culprits;
    Alcotest.test_case "campaign: finish runs no kernel" `Quick
      test_finish_runs_no_kernel;
  ]
