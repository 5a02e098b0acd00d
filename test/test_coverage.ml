(* Tests for the coverage ledger (Obs.Coverage) and funnel attrition
   accounting: per-var state-machine mechanics, delta merge laws
   (commutative/associative/idempotent), schedule invariance — the
   ledger bytes are identical across domains, process pools, streaming
   and checkpoint-resumed runs — and the attrition balance invariant. *)

module Coverage = Kit_obs.Coverage
module Campaign = Kit_core.Campaign
module Pool = Kit_serve.Pool
module Dataflow = Kit_gen.Dataflow
module Accessmap = Kit_profile.Accessmap
module Heap = Kit_kernel.Heap
module Stackrec = Kit_profile.Stackrec

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string
let check_lines = check Alcotest.(list string)

(* --- ledger mechanics ----------------------------------------------------- *)

let mini () = Coverage.create [ ("a", 100); ("b", 200); ("c", 300) ]

let state_at cov i = Coverage.state_name (Coverage.state cov i)

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
  check_lines "gap names" [ "b" ] (Coverage.gaps cov)

let test_delta_absorb_round_trip () =
  let cov = mini () in
  Coverage.mark_attributed cov ~addr:100;
  Coverage.mark_read cov ~addr:200;
  let fresh = mini () in
  Coverage.absorb fresh (Coverage.delta cov);
  check_lines "absorbed ledger renders identically"
    (Coverage.jsonl_lines cov) (Coverage.jsonl_lines fresh);
  (* absorbing a delta mentioning unknown vars is harmless *)
  Coverage.absorb fresh (Coverage.delta_of_list [ ("zzz", 15) ]);
  check_lines "unknown vars ignored" (Coverage.jsonl_lines cov)
    (Coverage.jsonl_lines fresh)

(* --- merge laws ----------------------------------------------------------- *)

let delta_gen =
  let names = [| "a"; "b"; "c"; "d" |] in
  QCheck.(
    map
      (fun pairs ->
        Coverage.delta_of_list
          (List.map (fun (i, flags) -> (names.(i), flags)) pairs))
      (list_of_size Gen.(0 -- 8) (pair (int_bound 3) (int_bound 15))))

let prop_merge_commutative =
  QCheck.Test.make ~name:"ledger merge is commutative" ~count:200
    (QCheck.pair delta_gen delta_gen)
    (fun (d1, d2) ->
      Coverage.equal_delta (Coverage.merge d1 d2) (Coverage.merge d2 d1))

let prop_merge_associative =
  QCheck.Test.make ~name:"ledger merge is associative" ~count:200
    (QCheck.triple delta_gen delta_gen delta_gen)
    (fun (d1, d2, d3) ->
      Coverage.equal_delta
        (Coverage.merge (Coverage.merge d1 d2) d3)
        (Coverage.merge d1 (Coverage.merge d2 d3)))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"ledger merge is idempotent" ~count:200 delta_gen
    (fun d -> Coverage.equal_delta (Coverage.merge d d) d)

(* --- campaign-level invariance -------------------------------------------- *)

let small_options =
  { Campaign.default_options with Campaign.corpus_size = 48; diagnose = false }

let ledger_lines (c : Campaign.t) = Coverage.jsonl_lines c.Campaign.coverage

let test_campaign_ledger_nonempty () =
  let c = Campaign.run small_options in
  let s = Coverage.summary c.Campaign.coverage in
  check_bool "universe non-empty" true (s.Coverage.sum_vars > 0);
  check_bool "some gaps remain" true (s.Coverage.sum_gaps > 0);
  check_bool "some vars attributed" true (s.Coverage.sum_attributed > 0);
  check_bool "gap list matches summary" true
    (List.length (Coverage.gaps c.Campaign.coverage) = s.Coverage.sum_gaps);
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
  let c2 =
    Campaign.run_with_executor ~executor:(Pool.executor cfg) small_options
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

(* Chunked execution with a checkpoint save/load cycle per pause —
   a daemon killed and restarted after every chunk — must converge to
   the straight-through ledger, and coverage must be monotone across
   the resumes. *)
let test_ledger_monotone_across_resume () =
  let straight = Campaign.run small_options in
  let path = Filename.temp_file "kit_cov" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let rec go resume =
        (* A fresh prepare per chunk, like a restarted process; the
           resumed ledger re-marks the profiling rungs and absorbs the
           checkpointed attribution delta, so state never regresses. *)
        let prepared = Campaign.prepare small_options in
        match Campaign.execute_partial ?resume ~budget:7 prepared with
        | `Done t -> t
        | `Paused ck ->
          Campaign.save_checkpoint path ck;
          let ck =
            match Campaign.load_checkpoint path with
            | Ok ck -> ck
            | Error e ->
              Alcotest.failf "checkpoint reload: %s"
                (Kit_core.Checkpoint.error_to_string e)
          in
          go (Some ck)
      in
      let resumed = go None in
      check_lines "chunked resume = straight through" (ledger_lines straight)
        (ledger_lines resumed);
      check_bool "attrition identical" true
        (straight.Campaign.attrition = resumed.Campaign.attrition))

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
  let profiles =
    Dataflow.profile_corpus o.Campaign.config spec
      (Kit_abi.Corpus.generate ~seed:7 ~size:96)
  in
  let map = Dataflow.build_map profiles in
  let universe =
    List.filter_map
      (fun (v : Heap.varinfo) ->
        if
          v.Heap.v_instrumented
          && Kit_spec.Spec.var_protected spec v.Heap.v_name
        then Some (v.Heap.v_name, v.Heap.v_addr)
        else None)
      profiles.Dataflow.vars
  in
  let touched =
    Array.of_list
      (List.concat_map
         (List.map (fun (a : Stackrec.access) -> a.Stackrec.addr))
         (Array.to_list profiles.Dataflow.accesses))
  and written = Array.of_list (Accessmap.writer_addresses map)
  and read = Array.of_list (Accessmap.reader_addresses map) in
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
    Alcotest.test_case "delta absorb round trip" `Quick
      test_delta_absorb_round_trip;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
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
