(* Tests for the coverage ledger (Obs.Coverage) and funnel attrition
   accounting: per-var state-machine mechanics, schedule invariance —
   the ledger bytes are identical across domains, process pools,
   streaming and case-result logs resumed on any executor — and the
   attrition balance invariant. *)

module Coverage = Kit_obs.Coverage
module Campaign = Kit_core.Campaign
module Pool = Kit_serve.Pool
module Dataflow = Kit_gen.Dataflow
module Heap = Kit_kernel.Heap
module Stackrec = Kit_profile.Stackrec

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string
let check_lines = check Alcotest.(list string)

(* --- ledger mechanics ----------------------------------------------------- *)

let mini () = Coverage.create [ ("a", 100); ("b", 200); ("c", 300) ]

(* Variable [i]'s state, as the JSONL export names it. *)
let state_at cov i =
  let line = List.nth (Coverage.jsonl_lines cov) (i + 1) in
  match Result.map (Kit_obs.Jsonl.member "state") (Kit_obs.Jsonl.parse line) with
  | Ok (Some s) -> Option.get (Kit_obs.Jsonl.to_str s)
  | Ok None | Error _ -> Alcotest.failf "no state in %s" line

(* The gap names the rendered ledger lists. *)
let gaps cov =
  let prefix = "  gap: " in
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix l then
        Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    (String.split_on_char '\n' (Coverage.render cov))

let test_state_machine () =
  let cov = mini () in
  check_str "starts untouched" "untouched" (state_at cov 0);
  Coverage.mark_touched cov ~addr:100;
  check_str "touched" "touched" (state_at cov 0);
  Coverage.mark_written cov ~addr:100;
  check_str "written" "written" (state_at cov 0);
  Coverage.mark_read cov ~addr:100;
  check_str "write+read = paired" "paired" (state_at cov 0);
  Coverage.mark_attributed cov ~addr:100;
  check_str "attributed" "attributed" (state_at cov 0);
  (* read without write stays below paired *)
  Coverage.mark_read cov ~addr:200;
  check_str "read only" "read" (state_at cov 1);
  (* marks are idempotent and imply the lower rungs *)
  Coverage.mark_read cov ~addr:200;
  check_str "idempotent" "read" (state_at cov 1);
  Coverage.mark_attributed cov ~addr:300;
  check_str "attribution implies every rung" "attributed" (state_at cov 2);
  (* unknown addresses are ignored, not errors *)
  Coverage.mark_written cov ~addr:999;
  let s = Coverage.summary cov in
  check_int "vars" 3 s.Coverage.sum_vars;
  check_int "written" 2 s.Coverage.sum_written;
  check_int "paired" 2 s.Coverage.sum_paired;
  check_int "attributed" 2 s.Coverage.sum_attributed;
  check_int "gaps" 1 s.Coverage.sum_gaps;
  check_lines "gap names" [ "b" ] (gaps cov)

(* --- one log, any executor ------------------------------------------------

   A case-result log is a log whoever wrote it: a campaign killed after
   12 completions, on the pool or in process, resumes on another
   executor with the straight-through summary and ledger. *)

let ledger_lines (c : Campaign.t) = Coverage.jsonl_lines c.Campaign.coverage

let cross_options =
  { Campaign.default_options with Campaign.corpus_size = 48; seed = 11 }

let view (c : Campaign.t) = (Kit_serve.Proto.summary c, ledger_lines c)

let straight_view = lazy (view (Campaign.run cross_options))

let pool = Pool.executor { Pool.default_config with Pool.procs = 2 }

(* Kill a writer after 12 completions (its log saved every 5), let
   [damage] have the file, then resume. *)
let resume_written_by ?writer ?(writer_options = cross_options)
    ?(damage = fun _ -> ()) ?executor ~replays options =
  Resume.with_path "kit-cross" (fun path ->
      (match
         Resume.run_process ?executor:writer ~kill:12 ~every:5 path
           writer_options
       with
      | _, None -> ()
      | _, Some _ -> Alcotest.fail "the writer must be killed");
      damage path;
      match Resume.run_process ?executor ~every:5 path options with
      | replayed, Some c ->
        check_int "replayed cases" replays replayed;
        check_bool "summary and ledger = straight through" true
          (view c = Lazy.force straight_view)
      | _, None -> Alcotest.fail "an unkilled process must finish")

let test_pool_log_in_process () =
  resume_written_by ~writer:pool ~replays:12 cross_options

let test_pool_log_on_domains () =
  resume_written_by ~writer:pool ~replays:12
    { cross_options with Campaign.domains = 4 }

let test_domains_log_on_pool () =
  resume_written_by
    ~writer_options:{ cross_options with Campaign.domains = 4 }
    ~executor:pool ~replays:12 cross_options

(* A kill mid-append: the last record (the 2 completions flushed at the
   kill) is torn off, and those cases run again. *)
let test_torn_log () =
  let damage path =
    let log = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub log 0 (String.length log - 9)))
  in
  resume_written_by ~damage ~replays:10 cross_options

(* --- campaign-level invariance -------------------------------------------- *)

let small_options =
  { Campaign.default_options with Campaign.corpus_size = 48; diagnose = false }

let test_campaign_ledger_nonempty () =
  let c = Campaign.run small_options in
  let s = Coverage.summary c.Campaign.coverage in
  check_bool "universe non-empty" true (s.Coverage.sum_vars > 0);
  check_bool "some gaps remain" true (s.Coverage.sum_gaps > 0);
  check_bool "some vars attributed" true (s.Coverage.sum_attributed > 0);
  check_bool "gap list matches summary" true
    (List.length (gaps c.Campaign.coverage) = s.Coverage.sum_gaps);
  check_bool "attrition balanced" true
    (Campaign.attrition_balanced c.Campaign.attrition);
  check_int "every rep charged to a terminal stage"
    (c.Campaign.attrition.Campaign.at_generated
    - c.Campaign.attrition.Campaign.at_absorbed)
    (List.length c.Campaign.generation.Kit_gen.Cluster.reps)

let test_ledger_identical_across_domains () =
  let c1 = Campaign.run small_options in
  let c2 = Campaign.run { small_options with Campaign.domains = 2 } in
  check_lines "domains 1 = domains 2" (ledger_lines c1) (ledger_lines c2);
  check_bool "attrition identical" true
    (c1.Campaign.attrition = c2.Campaign.attrition)

let test_ledger_identical_on_pool () =
  let c1 = Campaign.run small_options in
  let cfg = { Pool.default_config with Pool.procs = 2 } in
  let prepared = Campaign.prepare small_options in
  let c2 =
    Campaign.drive ~executor:(Pool.executor cfg)
      (Campaign.start prepared (Campaign.generate_prepared prepared))
  in
  check_lines "sequential = procs 2" (ledger_lines c1) (ledger_lines c2);
  check_bool "attrition identical" true
    (c1.Campaign.attrition = c2.Campaign.attrition)

let test_ledger_identical_streaming () =
  let c1 = Campaign.run small_options in
  let s = Campaign.stream small_options in
  let c2 = Campaign.stream_result s in
  check_lines "batch = streaming" (ledger_lines c1) (ledger_lines c2);
  check_bool "attrition identical" true
    (c1.Campaign.attrition = c2.Campaign.attrition)

(* Killed every 7 completions and restarted from the log each time — a
   fresh prepare per process — the campaign must converge to the
   straight-through ledger: each restart re-marks profiling and replays
   the logged results, whose attribution the fold marks again, and
   every restart starts further along than the one before. *)
let test_ledger_monotone_across_resume () =
  let straight = Campaign.run small_options in
  Resume.with_path "kit_cov" (fun path ->
      let rec go replayed_before =
        let replayed, result =
          Resume.run_process ~kill:7 ~every:7 path small_options
        in
        check_bool "every restart resumes further along" true
          (replayed > replayed_before);
        match result with Some c -> c | None -> go replayed
      in
      let resumed = go (-1) in
      check_lines "chunked resume = straight through" (ledger_lines straight)
        (ledger_lines resumed);
      check_bool "attrition identical" true
        (straight.Campaign.attrition = resumed.Campaign.attrition);
      check_bool "the log is gone once the result is built" false
        (Sys.file_exists path))

let prop_attrition_balanced =
  QCheck.Test.make ~name:"attrition balances for any seed" ~count:3
    QCheck.(int_bound 50)
    (fun seed ->
      let c =
        Campaign.run
          { small_options with Campaign.seed; corpus_size = 24 }
      in
      Campaign.attrition_balanced c.Campaign.attrition
      && c.Campaign.attrition.Campaign.at_reported
         = List.length c.Campaign.reports)

(* --- marking cost -------------------------------------------------------------

   The ledger is always on, so every profiled access pays for a mark.
   Replay the stream a seed-7, corpus-96 campaign marks: each mark must
   be one hash lookup and a bit set — at most the 2-word [Some] of the
   lookup on the minor heap, no per-mark key or string. *)
let test_marking_cost () =
  let o = Campaign.default_options in
  let spec = o.Campaign.spec in
  let profiler = Dataflow.profiler o.Campaign.config spec in
  let streams =
    List.map (Dataflow.profile_program_full profiler)
      (Kit_abi.Corpus.generate ~seed:7 ~size:96)
  in
  let universe =
    List.filter_map
      (fun (v : Heap.varinfo) ->
        if
          v.Heap.v_instrumented
          && Kit_spec.Spec.var_protected spec v.Heap.v_name
        then Some (v.Heap.v_name, v.Heap.v_addr)
        else None)
      (Dataflow.profiler_vars profiler)
  in
  (* touched from the raw accesses, written and read from the filtered
     ones, as the campaign's front end marks them *)
  let addrs keep accesses =
    Array.of_list
      (List.concat_map
         (List.filter_map (fun (a : Stackrec.access) ->
              if keep a.Stackrec.rw then Some a.Stackrec.addr else None))
         accesses)
  in
  let touched = addrs (fun _ -> true) (List.map fst streams)
  and written = addrs (( = ) Kit_kernel.Kevent.Write) (List.map snd streams)
  and read = addrs (( = ) Kit_kernel.Kevent.Read) (List.map snd streams) in
  let cov = Coverage.create universe in
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length touched - 1 do
    Coverage.mark_touched cov ~addr:touched.(i)
  done;
  for i = 0 to Array.length written - 1 do
    Coverage.mark_written cov ~addr:written.(i)
  done;
  for i = 0 to Array.length read - 1 do
    Coverage.mark_read cov ~addr:read.(i)
  done;
  let words = Gc.minor_words () -. w0 in
  let marks = Array.length touched + Array.length written + Array.length read in
  check_bool "the stream pairs some variables" true
    ((Coverage.summary cov).Coverage.sum_paired > 0);
  if words > 2.0 *. float_of_int marks then
    Alcotest.failf "%.0f minor words for %d marks" words marks

let suite =
  [
    Alcotest.test_case "per-var state machine" `Quick test_state_machine;
    Alcotest.test_case "ledger identical: pool log resumed in process" `Quick
      test_pool_log_in_process;
    Alcotest.test_case "ledger identical: pool log resumed on domains" `Quick
      test_pool_log_on_domains;
    Alcotest.test_case "ledger identical: domains log resumed on the pool"
      `Quick test_domains_log_on_pool;
    Alcotest.test_case "ledger identical: torn log resumed" `Quick
      test_torn_log;
    Alcotest.test_case "campaign ledger non-empty, balanced" `Quick
      test_campaign_ledger_nonempty;
    Alcotest.test_case "ledger identical across domains" `Quick
      test_ledger_identical_across_domains;
    Alcotest.test_case "ledger identical on the process pool" `Quick
      test_ledger_identical_on_pool;
    Alcotest.test_case "ledger identical streaming" `Quick
      test_ledger_identical_streaming;
    Alcotest.test_case "ledger monotone across checkpoint resume" `Quick
      test_ledger_monotone_across_resume;
    QCheck_alcotest.to_alcotest prop_attrition_balanced;
    Alcotest.test_case "marking costs at most 2 words per mark" `Quick
      test_marking_cost;
  ]
