(* The kit command-line interface.

     kit campaign    run a full testing campaign and summarise reports
     kit grow        streaming campaign + delta campaign on a grown corpus
     kit serve       multi-tenant campaign daemon: concurrent
                     submissions share one worker pool under weighted
                     deficit-round-robin scheduling, with per-tenant
                     checkpoints and --resume
     kit submit      submit a campaign to a running daemon
     kit status      show the daemon's pool and tenant state
     kit results     print a finished tenant's deterministic summary
     kit cancel      cancel a pending or active tenant
     kit extend      grow a finished tenant's corpus (delta campaign)
     kit tables      regenerate the paper's evaluation tables (2-6) and
                     its ablations (jump labels, refined spec, bounds)
     kit known-bugs  reproduce the documented bugs of Table 3
     kit run         execute one sender/receiver test case and explain it
     kit corpus      print a generated program corpus
     kit stats       summarise a telemetry JSONL file
     kit trace       analyse a trace export: span tree, profile,
                     critical path, Chrome/flamegraph output

   All commands are deterministic for a given --seed, including the
   injected fault schedules. campaign, grow and coverage share one
   campaign flag set; campaign and coverage share the execution flags
   (--procs, --checkpoint, --checkpoint-every, --resume); campaign,
   grow, serve and run accept --metrics FILE / --trace FILE to export
   campaign telemetry (observability plane, lib/obs); kit stats renders
   such a file.

   Exit codes (for CI gating):
     0    clean run, no interference reports
     1    interference reports found
     2    quarantined crashers (test cases that kept killing the kernel)
     3    internal error
     124  usage error: an unknown flag or an out-of-range value, refused
          before any work *)

module Campaign = Kit_core.Campaign
module Caselog = Kit_core.Caselog
module Tables = Kit_core.Tables
module Oracle = Kit_core.Oracle
module Known_bugs = Kit_core.Known_bugs
module Cluster = Kit_gen.Cluster
module Corpus = Kit_abi.Corpus
module Syzlang = Kit_abi.Syzlang
module Program = Kit_abi.Program
module Config = Kit_kernel.Config
module Fault = Kit_kernel.Fault
module Bugs = Kit_kernel.Bugs
module Supervisor = Kit_exec.Supervisor
module Pool = Kit_serve.Pool
module Proto = Kit_serve.Proto
module Sched = Kit_serve.Sched
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer
module Export = Kit_obs.Export
module Render = Kit_obs.Render
module Jsonl = Kit_obs.Jsonl
module Coverage = Kit_obs.Coverage
module Spantree = Kit_obs.Spantree
module Profile = Kit_obs.Profile

open Cmdliner

let exit_clean = 0
let exit_reports = 1
let exit_quarantined = 2
let exit_internal = 3

(* A --checkpoint file this run will not resume from. *)
exception Refused of string

(* Run a command body, mapping uncaught exceptions to exit code 3. *)
let guarded f =
  try f ()
  with
  | Refused msg ->
    Fmt.epr "kit: cannot resume: %s@." msg;
    exit_internal
  | Supervisor.Gave_up msg ->
    Fmt.epr "kit: gave up: %s@." msg;
    exit_internal
  | Pool.Aborted { unfinished; stats } ->
    Fmt.epr
      "kit: pool aborted: %d unfinished case(s) after %d death(s) and %d \
       respawn(s)%s@."
      (List.length unfinished) stats.Pool.deaths stats.Pool.respawns
      " (completed cases were checkpointed if --checkpoint was given; \
       rerun with --resume)";
    exit_internal
  | Sched.Dead_pool ->
    Fmt.epr
      "kit: every pool worker died with tenant work remaining; tenant state \
       was checkpointed — restart with --resume@.";
    exit_internal
  | e ->
    Fmt.epr "kit: internal error: %s@." (Printexc.to_string e);
    exit_internal

(* Integer flags have a floor. A value below it is a usage error (exit
   124, before any work), never a silent clamp. *)
let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got '%s'" lo s))
  in
  Arg.conv (parse, Fmt.int)

let positive = int_from 1
let non_negative = int_from 0

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && Float.is_finite x -> Ok x
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a number > 0, got '%s'" s))
  in
  Arg.conv (parse, Fmt.float)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Deterministic seed.")

let corpus_size_arg =
  Arg.(
    value & opt positive 320
    & info [ "corpus-size" ] ~doc:"Number of corpus test programs.")

let strategy_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "df-ia" -> Ok Cluster.Df_ia
    | "df-st-1" -> Ok (Cluster.Df_st 1)
    | "df-st-2" -> Ok (Cluster.Df_st 2)
    | other -> (
      match int_of_string_opt other with
      | Some n when n > 0 -> Ok (Cluster.Rand n)
      | Some _ | None ->
        Error (`Msg "expected df-ia, df-st-1, df-st-2 or a RAND budget"))
  in
  let print ppf s = Fmt.string ppf (Cluster.strategy_name s) in
  Arg.(
    value
    & opt (conv (parse, print)) Cluster.Df_ia
    & info [ "strategy" ] ~doc:"Generation strategy: df-ia, df-st-1, df-st-2, or an integer RAND budget.")

(* -- supervision / fault-injection options ------------------------------- *)

let faults_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault.parse_schedule s) in
  let print ppf s = Fmt.string ppf (Fault.schedule_to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "faults" ]
        ~doc:
          "Fault schedule: comma-separated $(b,panic:SYSNO[:K]), \
           $(b,hang:SYSNO[:K]), $(b,boot[:K]), $(b,snap[:K]) where K is an \
           occurrence count (default 1) or $(b,perm).")

let fault_intensity_arg =
  Arg.(
    value & opt non_negative 0
    & info [ "fault-intensity" ]
        ~doc:
          "Arm N additional transient faults drawn deterministically from \
           --seed (demo of the supervised runtime).")

let fuel_arg =
  Arg.(
    value
    & opt int Campaign.default_options.Campaign.fuel
    & info [ "fuel" ]
        ~doc:"Per-execution step budget; an execution exceeding it is hung.")

let max_retries_arg =
  Arg.(
    value
    & opt non_negative Campaign.default_options.Campaign.max_retries
    & info [ "max-retries" ]
        ~doc:"Supervisor retries per test case before quarantining it.")

let procs_arg =
  Arg.(
    value & opt positive 1
    & info [ "procs" ]
        ~doc:
          "Run the execute phase on N crash-isolated worker processes \
           (real Unix processes driven over pipes, with heartbeats, \
           respawns and reshard-on-death). \
           Reports, funnel and quarantine are identical for any value, \
           even under worker crashes; only wall-clock time changes.")

let domains_arg =
  Arg.(
    value & opt positive 1
    & info [ "domains" ]
        ~doc:
          "Run the execute phase on N OCaml domains (true multicore). \
           Reports, funnel and quarantine are identical for any value; \
           only wall-clock time changes.")

let schedules_arg =
  Arg.(
    value & opt positive 1
    & info [ "schedules" ]
        ~doc:
          "Search N interleaved schedule seeds per completed test case \
           (POR-pruned; one representative per equivalence class \
           executes). Sequentially-invisible race-window divergences \
           become concurrent reports carrying their reproducing seeds. \
           1 (the default) disables the search; sequential results are \
           unchanged for any value.")

let race_bugs_arg =
  Arg.(
    value & flag
    & info [ "race-bugs" ]
        ~doc:
          "Test the 5.13-rw kernel configuration: 5.13 plus the seeded \
           race-window bugs, which only interleaved schedules \
           ($(b,--schedules) > 1) can expose.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Log each executed representative's result to $(docv) as the \
           campaign runs (one format for every executor); the file is \
           deleted once the campaign's result is built.")

let checkpoint_every_arg =
  Arg.(
    value & opt positive 64
    & info [ "checkpoint-every" ]
        ~doc:"Cluster representatives between checkpoints.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the --checkpoint file if it exists: its results are \
           replayed, not re-executed. A file taken under different \
           campaign options is refused (exit 3) and left alone.")

(* -- observability options ----------------------------------------------- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export telemetry (metrics + trace events) to $(docv) as JSONL; \
           render it with $(b,kit stats).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Export trace events (phase and execution spans) to $(docv) as \
              JSONL.")

type telemetry = { metrics_file : string option; trace_file : string option }

let telemetry_term =
  Term.(
    const (fun metrics_file trace_file -> { metrics_file; trace_file })
    $ metrics_arg $ trace_arg)

(* Observability is off unless requested: --metrics/--trace build a
   recording bundle and enable the global default registry, so the
   kernel's per-sysno dispatch counters are collected too. *)
let obs_of_telemetry = function
  | { metrics_file = None; trace_file = None } -> None
  | _ ->
    Metrics.set_enabled Metrics.default true;
    Some (Obs.create ())

(* CLI exports carry wall-clock timings (volatile metrics, per-event
   timestamps): the deterministic subset is what the test suite golden-
   tests; a user reading `kit stats` wants real durations. *)
let export_obs obs ~meta { metrics_file; trace_file } =
  match obs with
  | None -> ()
  | Some (obs : Obs.t) ->
    let events = Tracer.events obs.Obs.tracer in
    let dropped = Tracer.dropped obs.Obs.tracer in
    (match metrics_file with
    | None -> ()
    | Some path ->
      let snap =
        Metrics.merge
          [ Obs.snapshot ~volatile:true obs;
            Metrics.snapshot ~volatile:true Metrics.default ]
      in
      Export.write_file path
        (Export.lines ~wall:true ~meta ~events ~dropped snap);
      Fmt.pr "telemetry: %s@." path);
    (match trace_file with
    | None -> ()
    | Some path ->
      Export.write_file path
        (Export.lines ~wall:true ~meta ~events ~dropped []);
      Fmt.pr "trace: %s@." path)

(* -- the shared campaign terms -------------------------------------------- *)

(* The campaign flag set of campaign, grow and coverage. *)
let options_term =
  let make seed corpus_size strategy faults fault_intensity fuel max_retries
      domains schedules race_bugs =
    { Campaign.default_options with
      Campaign.config =
        (if race_bugs then Config.v5_13_rw ()
         else Campaign.default_options.Campaign.config);
      seed; corpus_size; strategy; fuel; max_retries; domains; schedules;
      faults = faults @ Fault.schedule_of_seed ~seed ~intensity:fault_intensity }
  in
  Term.(
    const make $ seed_arg $ corpus_size_arg $ strategy_arg $ faults_arg
    $ fault_intensity_arg $ fuel_arg $ max_retries_arg $ domains_arg
    $ schedules_arg $ race_bugs_arg)

(* Where campaign and coverage run the execute phase, and its log. *)
type execution = {
  procs : int;
  checkpoint_file : string option;
  checkpoint_every : int;
  resume : bool;
}

let execution_term =
  Term.(
    const (fun procs checkpoint_file checkpoint_every resume ->
        { procs; checkpoint_file; checkpoint_every; resume })
    $ procs_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg)

(* The meta line of a campaign's telemetry export. *)
let campaign_meta cmd (o : Campaign.options) =
  [ ("cmd", Jsonl.Str cmd); ("seed", Jsonl.Int o.Campaign.seed);
    ("corpus_size", Jsonl.Int o.Campaign.corpus_size);
    ("strategy", Jsonl.Str (Cluster.strategy_name o.Campaign.strategy)) ]

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Render the AGG-RS groups.")

let summary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary" ] ~docv:"FILE"
        ~doc:
          "Write the deterministic campaign summary (no wall-clock content) \
           to $(docv) — byte-identical to what $(b,kit results) prints for \
           a served tenant with the same seed, corpus size and strategy.")

let write_summary c = function
  | None -> ()
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Proto.summary c));
    Fmt.pr "summary: %s@." path

let print_pool_stats ~procs = function
  | None -> ()
  | Some (s : Pool.stats) ->
    Fmt.pr "pool: %d procs, %d spawns, %d deaths (%d heartbeat), %d respawns@."
      procs s.Pool.spawns s.Pool.deaths s.Pool.heartbeat_timeouts
      s.Pool.respawns;
    Fmt.pr "pool: %d resharded, %d stolen, %d poisoned@."
      s.Pool.resharded s.Pool.stolen s.Pool.poisoned

(* Exit code of a finished campaign: quarantined crashers dominate. *)
let campaign_exit (c : Campaign.t) =
  if c.Campaign.quarantined <> [] then exit_quarantined
  else if c.Campaign.reports <> [] then exit_reports
  else exit_clean

(* The fault and supervision counters of a --procs run stay in its
   worker processes: the campaign's own supervisor runs nothing. *)
let print_robustness ?(procs = 1) (c : Campaign.t) =
  if c.Campaign.options.Campaign.faults <> [] then begin
    Fmt.pr "fault schedule: %s@."
      (Fault.schedule_to_string c.Campaign.options.Campaign.faults);
    if procs > 1 then begin
      Fmt.pr "faults fired: counted in the %d worker processes, not collected@."
        procs;
      Fmt.pr "supervisor: counted in the %d worker processes, not collected@."
        procs
    end
    else begin
      Fmt.pr "faults fired: %a@." Fault.pp_counters c.Campaign.fault_counters;
      Fmt.pr "supervisor: %a@." Supervisor.pp_stats c.Campaign.sup_stats
    end
  end;
  if c.Campaign.quarantined <> [] then begin
    Fmt.pr "%d quarantined crasher(s):@."
      (List.length c.Campaign.quarantined);
    List.iter
      (fun crash -> Fmt.pr "%a@." Supervisor.pp_crash crash)
      c.Campaign.quarantined
  end

(* The execute phase of kit campaign and kit coverage: in process
   (sequential or --domains) or on --procs worker processes, with
   --checkpoint logging each result as it completes. *)
let execute_campaign ?obs ?on_stats
    { procs; checkpoint_file; checkpoint_every; resume } opts =
  let executor =
    if procs > 1 then
      Some (Pool.executor ?obs ?on_stats { Pool.default_config with Pool.procs })
    else None
  in
  let log =
    Option.map
      (fun path ->
        match Caselog.campaign ~resume ~every:checkpoint_every path opts with
        | Ok log -> (path, log)
        | Error e -> raise (Refused (Caselog.error_to_string e)))
      checkpoint_file
  in
  let prepared = Campaign.prepare opts in
  let run =
    Campaign.start ?log:(Option.map snd log) prepared
      (Campaign.generate_prepared prepared)
  in
  (* What the driver replayed, not what the file holds: a logged report
     without culprits runs again. *)
  Option.iter
    (fun (path, _) ->
      if Campaign.run_replayed run > 0 then
        Fmt.pr "resuming from %s: %d/%d representatives done@." path
          (Campaign.run_replayed run) (Campaign.run_cases run))
    log;
  Campaign.drive ?executor run

let cmd_campaign =
  let run (opts : Campaign.options) x verbose summary_file tel =
    guarded (fun () ->
        let obs = obs_of_telemetry tel in
        let opts = { opts with Campaign.obs } in
        let pool_stats = ref None in
        let c =
          execute_campaign ?obs
            ~on_stats:(fun s -> pool_stats := Some s)
            x opts
        in
        export_obs obs tel ~meta:(campaign_meta "campaign" opts);
        let found = Oracle.new_bugs_found c.Campaign.keyed in
        Fmt.pr "strategy %s: %d clusters, %d reports after filtering@."
          (Cluster.strategy_name c.Campaign.generation.Cluster.strategy)
          c.Campaign.generation.Cluster.clusters
          (List.length c.Campaign.reports);
        Fmt.pr "%s@." (Tables.table5 c);
        Fmt.pr "new bugs found (%d/9): %a@." (List.length found)
          (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
          found;
        if c.Campaign.options.Campaign.schedules > 1 then begin
          let s = c.Campaign.sched in
          let race = Oracle.race_bugs_found c.Campaign.concurrent in
          Fmt.pr
            "schedule search (%d seeds/case): %d candidates, %d classes, \
             %d executed, %d pruned, %d skipped@."
            c.Campaign.options.Campaign.schedules s.Campaign.sched_candidates
            s.Campaign.sched_classes s.Campaign.sched_executed
            s.Campaign.sched_pruned s.Campaign.sched_skipped;
          Fmt.pr "concurrent reports: %d@."
            (List.length c.Campaign.concurrent);
          Fmt.pr "race-window bugs found (%d/%d): %a@." (List.length race)
            (List.length Bugs.race_bugs)
            (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
            race;
          List.iter
            (fun (r : Kit_detect.Report.t) ->
              Fmt.pr "%a@." Kit_detect.Report.pp r)
            c.Campaign.concurrent
        end;
        Fmt.pr "%s@." (Tables.performance c);
        print_pool_stats ~procs:x.procs !pool_stats;
        print_robustness ~procs:x.procs c;
        if verbose then Fmt.pr "@.%s@." (Kit_report.Render.groups c.Campaign.agg_rs);
        write_summary c summary_file;
        campaign_exit c)
  in
  Cmd.v (Cmd.info "campaign" ~doc:"Run a full testing campaign")
    Term.(
      const run $ options_term $ execution_term $ verbose_arg $ summary_arg
      $ telemetry_term)

let cmd_grow =
  let add_arg =
    Arg.(
      value & opt non_negative 64
      & info [ "add" ]
          ~doc:"Programs to append to the corpus for the delta campaign.")
  in
  let run (opts : Campaign.options) add verbose tel =
    guarded (fun () ->
        let obs = obs_of_telemetry tel in
        let opts = { opts with Campaign.obs } in
        let corpus_size = opts.Campaign.corpus_size in
        (* Streaming base campaign: execute-while-generate, so the first
           report lands before the corpus is fully profiled. *)
        let s = Campaign.stream opts in
        let base = Campaign.stream_result s in
        let base_stats = Campaign.stream_stats s in
        Fmt.pr
          "base corpus %d: %d clusters, %d reports, %d representative \
           executions%a@."
          corpus_size base.Campaign.generation.Cluster.clusters
          (List.length base.Campaign.reports)
          base_stats.Campaign.executed_cases
          Fmt.(
            option (fun ppf t -> pf ppf ", first report after %.3fs" t))
          base_stats.Campaign.first_report_s;
        (* Delta campaign: only new and representative-changed clusters
           re-execute. *)
        let c = Campaign.extend s ~add in
        let stats = Campaign.stream_stats s in
        let delta = stats.Campaign.executed_cases - base_stats.Campaign.executed_cases in
        let total = List.length c.Campaign.generation.Cluster.reps in
        export_obs obs tel
          ~meta:(campaign_meta "grow" opts @ [ ("add", Jsonl.Int add) ]);
        Fmt.pr
          "grown corpus %d: %d clusters, %d reports after filtering@."
          (corpus_size + add) c.Campaign.generation.Cluster.clusters
          (List.length c.Campaign.reports);
        Fmt.pr
          "delta: executed %d of %d cluster representatives (%d unchanged, \
           %d re-executed after representative changes)@."
          delta total (total - delta)
          (stats.Campaign.reexecuted - base_stats.Campaign.reexecuted);
        let found = Oracle.new_bugs_found c.Campaign.keyed in
        Fmt.pr "new bugs found (%d/9): %a@." (List.length found)
          (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
          found;
        if c.Campaign.options.Campaign.schedules > 1 then begin
          let race = Oracle.race_bugs_found c.Campaign.concurrent in
          Fmt.pr "concurrent reports: %d@."
            (List.length c.Campaign.concurrent);
          Fmt.pr "race-window bugs found (%d/%d): %a@." (List.length race)
            (List.length Bugs.race_bugs)
            (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
            race
        end;
        print_robustness c;
        if verbose then
          Fmt.pr "@.%s@." (Kit_report.Render.groups c.Campaign.agg_rs);
        campaign_exit c)
  in
  Cmd.v
    (Cmd.info "grow"
       ~doc:
         "Run a streaming campaign, then grow the corpus and re-execute \
          only changed clusters")
    Term.(const run $ options_term $ add_arg $ verbose_arg $ telemetry_term)

(* kit coverage: the campaign as a measurement instrument. Runs the
   pipeline (diagnosis off — the ledger needs reports, not culprit
   pairs) and prints the per-variable coverage ledger and attrition
   funnel instead of the bug tables. The JSONL output is deterministic
   for a seed and carries no schedule parameters in its meta line, so
   exports from --domains 1, --domains 4 and --procs 2 runs are
   byte-identical — that equality is the CI gate for schedule-invariant
   accounting. *)
let cmd_coverage =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the ledger as JSONL (one $(i,covsum) summary line, one \
             line per variable, one $(i,funnel) attrition line) instead of \
             the text report. Deterministic and byte-identical across \
             $(b,--domains)/$(b,--procs) schedules.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the JSONL ledger to $(docv).")
  in
  let run opts x json out =
    guarded (fun () ->
        let c = execute_campaign x { opts with Campaign.diagnose = false } in
        let a = c.Campaign.attrition in
        let funnel_line =
          Jsonl.to_string
            (Jsonl.Obj
               [ ("k", Jsonl.Str "funnel");
                 ("generated", Jsonl.Int a.Campaign.at_generated);
                 ("absorbed", Jsonl.Int a.Campaign.at_absorbed);
                 ("quar_panic", Jsonl.Int a.Campaign.at_quar_panic);
                 ("quar_hung", Jsonl.Int a.Campaign.at_quar_hung);
                 ("quar_lost", Jsonl.Int a.Campaign.at_quar_lost);
                 ("no_divergence", Jsonl.Int a.Campaign.at_no_divergence);
                 ("filtered_nondet", Jsonl.Int a.Campaign.at_filtered_nondet);
                 ("filtered_resource",
                  Jsonl.Int a.Campaign.at_filtered_resource);
                 ("reported", Jsonl.Int a.Campaign.at_reported);
                 ("balanced",
                  Jsonl.Bool (Campaign.attrition_balanced a)) ])
        in
        (* No domains/procs in the meta line: the export must byte-diff
           equal across execution schedules. *)
        let meta_line =
          Jsonl.to_string
            (Jsonl.Obj
               (("k", Jsonl.Str "meta") :: campaign_meta "coverage" opts))
        in
        let jsonl =
          (meta_line :: Coverage.jsonl_lines c.Campaign.coverage)
          @ [ funnel_line ]
        in
        (match out with
        | None -> ()
        | Some path ->
          Export.write_file path jsonl;
          Fmt.pr "coverage: %s@." path);
        if json then List.iter print_endline jsonl
        else begin
          Fmt.pr "%s@." (Coverage.render c.Campaign.coverage);
          Fmt.pr "%s@."
            (Render.funnel
               { Export.p_meta = [];
                 p_snapshot = Obs.snapshot c.Campaign.obs;
                 p_events = [];
                 p_dropped = 0 })
        end;
        campaign_exit c)
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Run a campaign and report the per-variable coverage ledger — \
          which namespace-protected shared variables were touched, \
          written, read, observed with an overlapping write/read pair, or \
          attributed to a report — plus the funnel attrition accounting \
          that charges every generated case to one terminal stage.")
    Term.(const run $ options_term $ execution_term $ json_arg $ out_arg)

let cmd_tables =
  let run seed corpus_size =
    guarded (fun () ->
        let options =
          { Campaign.default_options with Campaign.seed; corpus_size }
        in
        let _, t4, (df_ia, _, _, _) = Tables.table4 options in
        let _, t2 = Tables.table2 df_ia in
        Fmt.pr "== Table 2: bugs found ==@.%s@." t2;
        let _, t3 = Tables.table3 () in
        Fmt.pr "== Table 3: known bugs ==@.%s@." t3;
        Fmt.pr "== Table 4: generation strategies ==@.%s@." t4;
        Fmt.pr "== Table 5: report filtering ==@.%s@.@." (Tables.table5 df_ia);
        let _, t6 = Tables.table6 df_ia in
        Fmt.pr "== Table 6: report aggregation ==@.%s@." t6;
        Fmt.pr "== Performance (sec. 6.5) ==@.%s@." (Tables.performance df_ia);
        let _, jl = Tables.jump_label options in
        Fmt.pr "@.== Ablation: CONFIG_JUMP_LABEL=y (sec. 6.1) ==@.%s@." jl;
        let _, sr = Tables.spec_refinement options in
        Fmt.pr "== Ablation: refined spec (sec. 6.4) ==@.%s@." sr;
        let _, b = Tables.bounds () in
        Fmt.pr "== Ablation: time namespace, bounds detector (sec. 7) ==@.%s" b;
        exit_clean)
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's evaluation tables and its three ablations")
    Term.(const run $ seed_arg $ corpus_size_arg)

let cmd_known_bugs =
  let run () =
    guarded (fun () ->
        let outcomes, rendered = Tables.table3 () in
        Fmt.pr "%s@." rendered;
        Fmt.pr "detected %d/7 documented bugs (paper: 5/7)@."
          (Known_bugs.detected_count outcomes);
        exit_clean)
  in
  Cmd.v
    (Cmd.info "known-bugs" ~doc:"Reproduce the documented bugs of Table 3")
    Term.(const run $ const ())

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse a user-supplied program file, turning parse failures into a
   clean CLI error instead of an uncaught exception. *)
let parse_program_file path =
  try Ok (Syzlang.parse (read_file path))
  with Syzlang.Parse_error msg ->
    Fmt.epr "kit: cannot parse %s: %s@." path msg;
    Error exit_internal

let cmd_run =
  let sender_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "sender" ] ~doc:"Sender program file (syzlang-style).")
  in
  let receiver_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "receiver" ] ~doc:"Receiver program file (syzlang-style).")
  in
  let version_arg =
    Arg.(
      value & opt string "5.13"
      & info [ "kernel" ] ~doc:"Model kernel release to test.")
  in
  let bounds_arg =
    Arg.(value & flag
         & info [ "bounds" ]
             ~doc:"Use the bounds-based detector instead of trace masking.")
  in
  let run sender_file receiver_file version bounds faults fault_intensity fuel
      max_retries seed tel =
    guarded (fun () ->
        match (parse_program_file sender_file, parse_program_file receiver_file)
        with
        | Error code, _ | _, Error code -> code
        | Ok sender, Ok receiver ->
          let config = Config.make version in
          let faults =
            faults @ Fault.schedule_of_seed ~seed ~intensity:fault_intensity
          in
          let cfg =
            { Supervisor.default_config with Supervisor.fuel; max_retries }
          in
          let obs = obs_of_telemetry tel in
          let sup =
            Supervisor.create ~cfg ~fault:(Fault.of_schedule faults)
              ?obs config
          in
          let finish code =
            export_obs obs tel
              ~meta:[ ("cmd", Jsonl.Str "run"); ("seed", Jsonl.Int seed) ];
            code
          in
          finish
          @@
          if bounds then begin
            let violations =
              Kit_exec.Runner.execute_bounds sup.Supervisor.runner ~sender
                ~receiver
            in
            if violations = [] then begin
              Fmt.pr "no bound violations@.";
              exit_clean
            end
            else begin
              List.iter
                (fun v ->
                  Fmt.pr "VIOLATION %a@." Kit_trace.Bounds.pp_violation v)
                violations;
              exit_reports
            end
          end
          else begin
            match Supervisor.execute sup ~sender ~receiver with
            | Kit_exec.Runner.Crashed info ->
              Fmt.pr "test case QUARANTINED: %a@." Fault.pp_panic_info info;
              exit_quarantined
            | Kit_exec.Runner.Hung ->
              Fmt.pr "test case QUARANTINED: hung every attempt@.";
              exit_quarantined
            | Kit_exec.Runner.Completed outcome ->
              if outcome.Kit_exec.Runner.masked_diffs = [] then begin
                Fmt.pr "no functional interference detected@.";
                exit_clean
              end
              else begin
                Fmt.pr "functional interference on receiver calls [%a]:@."
                  (Fmt.list ~sep:(Fmt.any ",") Fmt.int)
                  outcome.Kit_exec.Runner.interfered;
                List.iter
                  (fun d -> Fmt.pr "  %a@." Kit_trace.Compare.pp_diff d)
                  outcome.Kit_exec.Runner.masked_diffs;
                exit_reports
              end
          end)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute one sender/receiver test case")
    Term.(
      const run $ sender_arg $ receiver_arg $ version_arg $ bounds_arg
      $ faults_arg $ fault_intensity_arg $ fuel_arg $ max_retries_arg
      $ seed_arg $ telemetry_term)

let cmd_profile =
  let program_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "program" ] ~doc:"Test program file (syzlang-style).")
  in
  let run program_file =
    guarded (fun () ->
        match parse_program_file program_file with
        | Error code -> code
        | Ok prog ->
          let profiler = Kit_profile.Collect.create (Config.v5_13 ()) in
          let profile =
            Kit_profile.Collect.profile profiler
              ~role:Kit_profile.Collect.Receiver prog
          in
          Fmt.pr "%d attributed kernel memory accesses:@."
            (List.length profile.Kit_profile.Collect.accesses);
          List.iter
            (fun (a : Kit_profile.Stackrec.access) ->
              Fmt.pr "  sys#%d %s addr=0x%x ip=0x%x stack=[%s]@."
                a.Kit_profile.Stackrec.sys_index
                (Kit_kernel.Kevent.rw_to_string a.Kit_profile.Stackrec.rw)
                a.Kit_profile.Stackrec.addr a.Kit_profile.Stackrec.ip
                (String.concat " < "
                   (List.map Kit_kernel.Kfun.name a.Kit_profile.Stackrec.stack)))
            profile.Kit_profile.Collect.accesses;
          exit_clean)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile one test program's kernel memory footprint")
    Term.(const run $ program_arg)

let cmd_corpus =
  let size_arg =
    Arg.(value & opt int 16 & info [ "size" ] ~doc:"Corpus size.")
  in
  let run seed size =
    guarded (fun () ->
        let corpus = Corpus.generate ~seed ~size in
        List.iteri
          (fun i prog -> Fmt.pr "# program %d@.%s@." i (Program.to_string prog))
          corpus;
        exit_clean)
  in
  Cmd.v (Cmd.info "corpus" ~doc:"Print a generated program corpus")
    Term.(const run $ seed_arg $ size_arg)

let cmd_stats =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Telemetry JSONL file written by $(b,--metrics) or \
                $(b,--trace).")
  in
  let funnel_arg =
    Arg.(
      value & flag
      & info [ "funnel" ]
          ~doc:
            "Render the attrition funnel from the export's \
             $(i,campaign.attr_*) counters: every generated data-flow case \
             charged to exactly one terminal stage, with a balance line, \
             plus the schedule-search and coverage summaries when \
             present.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Re-emit the export as canonical JSONL: metrics sorted by \
             name, wall-clock timestamps stripped — byte-stable, so two \
             canonicalised exports of the same campaign diff clean.")
  in
  let run file funnel json =
    guarded (fun () ->
        match Export.read_file file with
        | Error e ->
          Fmt.epr "kit: %s@." e;
          exit_internal
        | Ok parsed ->
          if json then begin
            let snapshot =
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                parsed.Export.p_snapshot
            in
            List.iter print_endline
              (Export.lines ~wall:false ~meta:parsed.Export.p_meta
                 ~events:parsed.Export.p_events
                 ~dropped:parsed.Export.p_dropped snapshot);
            exit_clean
          end
          else begin
            Fmt.pr "%s@." (Render.stats parsed);
            if funnel then Fmt.pr "%s@." (Render.funnel parsed);
            exit_clean
          end)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarise a telemetry JSONL file")
    Term.(const run $ file_arg $ funnel_arg $ json_arg)

(* kit trace: the trace-analysis toolchain over a --trace/--metrics
   export. Streams the file (Export.fold_file) so a long campaign's
   export never has to fit in one list, rebuilds the span tree, and
   prints tree + profile + critical path, or writes Chrome trace-event
   JSON / folded flamegraph stacks. *)
let cmd_trace =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Trace JSONL file written by $(b,--trace) (or \
                $(b,--metrics)).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Rows of the profile table to print.")
  in
  let depth_arg =
    Arg.(
      value & opt int 6
      & info [ "depth" ] ~doc:"Maximum span-tree depth to print.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write Chrome trace-event JSON to $(docv); load it in Perfetto \
             (ui.perfetto.dev) or chrome://tracing.")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded flamegraph stacks to $(docv) (flamegraph.pl or \
             speedscope input).")
  in
  let lane_arg =
    Arg.(
      value & opt_all string []
      & info [ "lane" ] ~docv:"ATTR"
          ~doc:
            "Split lanes by span attribute $(docv) (repeatable; default: \
             domain, worker).")
  in
  let run file top depth chrome folded lanes =
    guarded (fun () ->
        (* One streaming pass: keep only events and the drop count. *)
        let folded_lines =
          Export.fold_file file ~init:(0, [])
            ~f:(fun ((dropped, evs) as acc) line ->
              match line with
              | Export.Event e -> (dropped, e :: evs)
              | Export.Dropped n -> (n, evs)
              | Export.Meta _ | Export.Metric _ -> acc)
        in
        match folded_lines with
        | Error e ->
          Fmt.epr "kit: %s@." e;
          exit_internal
        | Ok (dropped, rev_events) ->
          let lane_attrs =
            if lanes = [] then Spantree.default_lane_attrs else lanes
          in
          let tree =
            Spantree.build ~lane_attrs ~dropped (List.rev rev_events)
          in
          let profile = Profile.of_tree tree in
          Fmt.pr "%s@." (Spantree.render ~max_depth:depth tree);
          Fmt.pr "%s@." (Profile.render_table ~k:top profile);
          Fmt.pr "%s@." (Profile.render_critical_path tree);
          (match chrome with
          | None -> ()
          | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (Jsonl.to_string (Spantree.to_chrome tree));
                output_char oc '\n');
            Fmt.pr "chrome trace: %s@." path);
          (match folded with
          | None -> ()
          | Some path ->
            Export.write_file path (Profile.folded tree);
            Fmt.pr "folded stacks: %s@." path);
          exit_clean)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Analyse a trace export: span tree, profile table, critical path, \
          Chrome/flamegraph output")
    Term.(
      const run $ file_arg $ top_arg $ depth_arg $ chrome_arg $ folded_arg
      $ lane_arg)

(* -- the serve family: daemon + one-shot clients ------------------------- *)

let socket_arg =
  Arg.(
    value & opt string "kit-serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

(* One-shot client call; transport failures and rejections exit 3. *)
let client socket req ~on_reply =
  match Proto.request socket req with
  | Error e ->
    Fmt.epr "kit: %s@." e;
    exit_internal
  | Ok (Proto.Rejected why) ->
    Fmt.epr "kit: rejected: %s@." why;
    exit_internal
  | Ok reply -> on_reply reply

let unexpected_reply (_ : Proto.reply) =
  Fmt.epr "kit: unexpected reply from the daemon@.";
  exit_internal

let rec wait_results socket name =
  match Proto.request socket (Proto.Results name) with
  | Ok (Proto.Summary s) ->
    Fmt.pr "%s@?" s;
    exit_clean
  | Ok (Proto.Not_ready _) ->
    Unix.sleepf 0.25;
    wait_results socket name
  | Ok (Proto.Rejected why) ->
    Fmt.epr "kit: rejected: %s@." why;
    exit_internal
  | Ok _ -> unexpected_reply Proto.Bye
  | Error e ->
    Fmt.epr "kit: %s@." e;
    exit_internal

let cmd_serve =
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint tenant state under $(docv) (created if missing); a \
             daemon restarted with $(b,--resume) restores every tenant from \
             it without re-executing checkpointed work.")
  in
  let serve_procs_arg =
    Arg.(
      value & opt positive 4 & info [ "procs" ] ~doc:"Shared worker processes.")
  in
  let serve_heartbeat_arg =
    Arg.(
      value & opt positive_float 30.0
      & info [ "heartbeat" ] ~docv:"SECONDS"
          ~doc:"Per-job wall-clock deadline for pool workers.")
  in
  let serve_max_respawns_arg =
    Arg.(
      value & opt non_negative 3
      & info [ "max-respawns" ] ~doc:"Respawn budget per worker slot.")
  in
  let max_active_arg =
    Arg.(
      value & opt positive 4
      & info [ "max-active" ] ~doc:"Tenants executing concurrently.")
  in
  let max_pending_arg =
    Arg.(
      value & opt non_negative 16
      & info [ "max-pending" ]
          ~doc:"Admission bound: submissions waiting for activation.")
  in
  let serve_resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore every tenant checkpointed under $(b,--state-dir): \
             checkpointed results are replayed, not re-executed.")
  in
  let run socket state_dir procs heartbeat_s max_respawns max_active
      max_pending checkpoint_every resume tel =
    guarded (fun () ->
        (* Listen first: a live daemon's socket is refused before any work. *)
        match Proto.listen socket with
        | exception Unix.Unix_error (Unix.EADDRINUSE, "listen", _) ->
          Fmt.epr "kit: a daemon is already serving %s@." socket;
          exit_internal
        | listening ->
          let obs = obs_of_telemetry tel in
          let cfg =
            { Sched.sc_pool =
                { Pool.default_config with
                  Pool.procs;
                  heartbeat_s;
                  max_respawns };
              sc_max_active = max_active;
              sc_max_pending = max_pending;
              sc_state_dir = state_dir;
              sc_checkpoint_every = checkpoint_every }
          in
          let s = Sched.create ?obs cfg in
          Fun.protect
            ~finally:(fun () ->
              Sched.shutdown s;
              Unix.close listening;
              try Sys.remove socket with Sys_error _ -> ())
            (fun () ->
              if resume then
                List.iter
                  (fun (name, state) ->
                    Fmt.pr "kit-serve: resumed tenant %s (%s)@." name state)
                  (Sched.resume s);
              Fmt.pr "kit-serve: listening on %s@." socket;
              Sched.serve s listening;
              Fmt.pr "kit-serve: shutting down (state checkpointed)@.");
          export_obs obs tel
            ~meta:[ ("cmd", Jsonl.Str "serve"); ("procs", Jsonl.Int procs) ];
          exit_clean)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant campaign daemon: concurrent submissions \
          share one crash-isolated worker pool under weighted \
          deficit-round-robin fair scheduling. SIGTERM (or a Shutdown \
          request) checkpoints every tenant and exits 0; a daemon whose \
          every worker died exits 3 after checkpointing, and \
          $(b,--resume) picks up where it left off.")
    Term.(
      const run $ socket_arg $ state_dir_arg $ serve_procs_arg
      $ serve_heartbeat_arg $ serve_max_respawns_arg $ max_active_arg
      $ max_pending_arg $ checkpoint_every_arg $ serve_resume_arg
      $ telemetry_term)

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME" ~doc:"Tenant name.")

let wait_arg =
  Arg.(
    value & flag
    & info [ "wait" ]
        ~doc:"Poll until the tenant finishes, then print its summary.")

let cmd_submit =
  let submit_name_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Tenant name (1-64 chars from [A-Za-z0-9_-]; unique).")
  in
  let weight_arg =
    Arg.(
      value & opt positive 1
      & info [ "weight" ]
          ~doc:
            "Fair-share weight: under contention the tenant's executed-case \
             share converges to weight / sum-of-weights.")
  in
  let no_diagnose_arg =
    Arg.(
      value & flag
      & info [ "no-diagnose" ] ~doc:"Skip diagnosis and aggregation.")
  in
  let run socket name seed corpus_size strategy weight no_diagnose schedules
      wait =
    guarded (fun () ->
        let spec =
          { Proto.sp_name = name;
            sp_seed = seed;
            sp_corpus_size = corpus_size;
            sp_strategy = strategy;
            sp_weight = weight;
            sp_diagnose = not no_diagnose;
            sp_schedules = schedules }
        in
        client socket (Proto.Submit spec) ~on_reply:(function
          | Proto.Accepted { a_name; a_id } ->
            Fmt.pr "accepted %s as tenant %d@." a_name a_id;
            if wait then wait_results socket name else exit_clean
          | reply -> unexpected_reply reply))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a running $(b,kit serve) daemon. The \
          tenant's eventual $(b,kit results) summary is byte-identical to \
          a standalone $(b,kit campaign --summary) with the same seed, \
          corpus size and strategy.")
    Term.(
      const run $ socket_arg $ submit_name_arg $ seed_arg $ corpus_size_arg
      $ strategy_arg $ weight_arg $ no_diagnose_arg $ schedules_arg
      $ wait_arg)

let cmd_status =
  let run socket =
    guarded (fun () ->
        client socket Proto.Status ~on_reply:(function
          | Proto.Status_is { st_pool = p; st_tenants } ->
            Fmt.pr "pool: %d procs, %d live, %d spawns, %d deaths, %d \
                    respawns@."
              p.Proto.ps_procs p.Proto.ps_live p.Proto.ps_spawns
              p.Proto.ps_deaths p.Proto.ps_respawns;
            List.iter
              (fun (ts : Proto.tenant_status) ->
                Fmt.pr
                  "tenant %s (id %d, weight %d): %s, %d/%d done, %d execs, \
                   %d resumed, %d dispatched (%d contended, %d stolen)%s@."
                  ts.Proto.ts_name ts.Proto.ts_id ts.Proto.ts_weight
                  ts.Proto.ts_state ts.Proto.ts_done ts.Proto.ts_total
                  ts.Proto.ts_executions ts.Proto.ts_resumed
                  ts.Proto.ts_dispatched ts.Proto.ts_contended
                  ts.Proto.ts_steals
                  ((if ts.Proto.ts_reports >= 0 then
                      Printf.sprintf ", %d reports" ts.Proto.ts_reports
                    else "")
                  ^
                  if ts.Proto.ts_cov_vars >= 0 then
                    Printf.sprintf
                      ", coverage %d/%d paired (%d gaps, %d attributed)"
                      ts.Proto.ts_cov_paired ts.Proto.ts_cov_vars
                      ts.Proto.ts_cov_gaps ts.Proto.ts_cov_attributed
                  else ""))
              st_tenants;
            exit_clean
          | reply -> unexpected_reply reply))
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show the daemon's pool and tenant state.")
    Term.(const run $ socket_arg)

let cmd_results =
  let run socket name wait =
    guarded (fun () ->
        if wait then wait_results socket name
        else
          client socket (Proto.Results name) ~on_reply:(function
            | Proto.Summary s ->
              Fmt.pr "%s@?" s;
              exit_clean
            | Proto.Not_ready state ->
              Fmt.epr "kit: %s is not finished (%s)@." name state;
              exit_reports
            | reply -> unexpected_reply reply))
  in
  Cmd.v
    (Cmd.info "results"
       ~doc:
         "Print a finished tenant's deterministic campaign summary \
          (byte-identical to $(b,kit campaign --summary) on the same \
          inputs).")
    Term.(const run $ socket_arg $ name_arg $ wait_arg)

let cmd_cancel =
  let run socket name =
    guarded (fun () ->
        client socket (Proto.Cancel name) ~on_reply:(function
          | Proto.Acked ->
            Fmt.pr "cancelled %s@." name;
            exit_clean
          | reply -> unexpected_reply reply))
  in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a pending or active tenant.")
    Term.(const run $ socket_arg $ name_arg)

let cmd_extend =
  let add_arg =
    Arg.(
      value & opt positive 64
      & info [ "add" ] ~doc:"Programs to append to the tenant's corpus.")
  in
  let run socket name add wait =
    guarded (fun () ->
        client socket (Proto.Extend { x_name = name; x_add = add })
          ~on_reply:(function
          | Proto.Accepted { a_name; a_id } ->
            Fmt.pr "extending %s (tenant %d) by %d@." a_name a_id add;
            if wait then wait_results socket name else exit_clean
          | reply -> unexpected_reply reply))
  in
  Cmd.v
    (Cmd.info "extend"
       ~doc:
         "Grow a finished tenant's corpus and re-run it as a delta \
          campaign: cached per-cluster results are replayed, so unchanged \
          clusters are not re-executed.")
    Term.(const run $ socket_arg $ name_arg $ add_arg $ wait_arg)

let main =
  Cmd.group
    (Cmd.info "kit" ~version:"1.0.0"
       ~doc:"Functional interference testing for OS-level virtualization")
    [ cmd_campaign; cmd_grow; cmd_coverage; cmd_serve; cmd_submit; cmd_status;
      cmd_results; cmd_cancel; cmd_extend; cmd_tables; cmd_known_bugs; cmd_run;
      cmd_profile; cmd_corpus; cmd_stats; cmd_trace ]

(* Pool workers re-execute this binary; the trampoline must run before
   cmdliner sees argv. No-op in the parent. *)
let () = Pool.worker_entry ()
let () = exit (Cmd.eval' main)
