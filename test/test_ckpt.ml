(* Typed checkpoint codecs and the append-only KITCKPT1 log: round
   trips over real case results and specs, decoder fuzzing, the
   torn-tail rule, a simulated crash at every byte of a tenant log and
   of a campaign log, and old-kind files in a resumed daemon. *)

module Checkpoint = Kit_core.Checkpoint
module Codec = Kit_core.Codec
module Caselog = Kit_core.Caselog
module Campaign = Kit_core.Campaign
module Testcase = Kit_gen.Testcase
module Jsonl = Kit_obs.Jsonl
module Obs = Kit_obs.Obs
module Tracer = Kit_obs.Tracer
module Ast = Kit_trace.Ast
module Report = Kit_detect.Report
module Supervisor = Kit_exec.Supervisor
module Fault = Kit_kernel.Fault
module Config = Kit_kernel.Config
module Sysno = Kit_abi.Sysno
module Cluster = Kit_gen.Cluster
module Proto = Kit_serve.Proto
module Tenant = Kit_serve.Tenant
module Sched = Kit_serve.Sched
module Pool = Kit_serve.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- the log container -------------------------------------------------- *)

let header_len kind = String.length Checkpoint.magic + 1 + String.length kind

let test_log_torn_tail_rule () =
  with_dir "kit-log" (fun dir ->
      let path = Filename.concat dir "log" in
      Checkpoint.write path ~kind:"k" [ "a"; "bb" ];
      Checkpoint.append path "ccc";
      let clean = read_file path in
      (match Checkpoint.read path ~kind:"k" with
      | Ok { Checkpoint.records; torn } ->
        check_bool "every record, in order" true
          (records = [ "a"; "bb"; "ccc" ]);
        check_int "no torn tail" 0 torn
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      (* garbage after the last record: a torn append *)
      write_file path (clean ^ "\x00\x07junk");
      (match Checkpoint.read path ~kind:"k" with
      | Ok { Checkpoint.records; torn } ->
        check_bool "complete records kept" true
          (records = [ "a"; "bb"; "ccc" ]);
        check_int "torn bytes reported" 6 torn
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      (* a damaged final record is a torn tail too *)
      let flip s i =
        String.mapi
          (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
          s
      in
      write_file path (flip clean (String.length clean - 1));
      (match Checkpoint.read path ~kind:"k" with
      | Ok { Checkpoint.records; torn } ->
        check_bool "damaged last record dropped" true (records = [ "a"; "bb" ]);
        check_int "its bytes reported" (24 + 3) torn
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e));
      (* a damaged record with valid data after it is corruption *)
      let second_payload = header_len "k" + 24 + 1 + 24 in
      write_file path (flip clean second_payload);
      (match Checkpoint.read path ~kind:"k" with
      | Error (Checkpoint.Checkpoint_corrupt _) -> ()
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      | Ok _ -> Alcotest.fail "mid-file damage must not load");
      (* a cut header is a typed error, whichever byte it stops at *)
      for cut = 0 to header_len "k" - 1 do
        write_file path (String.sub clean 0 cut);
        match Checkpoint.read path ~kind:"k" with
        | Error (Checkpoint.Not_checkpoint _ | Checkpoint.Checkpoint_corrupt _)
          -> ()
        | Error (Checkpoint.Io _) | Ok _ ->
          Alcotest.failf "header cut at %d must be a typed error" cut
      done)

(* --- real case results -------------------------------------------------- *)

(* A race-window campaign searched at 8 schedules: its results carry
   reports with traces and diffs, and concurrent findings whose origins
   list reproducing seeds. *)
let rw_options =
  { Campaign.default_options with
    Campaign.config = Config.v5_13_rw ();
    corpus_size = 48;
    seed = 7;
    diagnose = true;
    schedules = 8 }

let rw =
  lazy
    (let prepared = Campaign.prepare rw_options in
     let generation = Campaign.generate_prepared prepared in
     let corpus = Campaign.prepared_corpus prepared in
     let obs = Obs.create ~tracer:Tracer.nop () in
     let sup = Campaign.supervisor ~obs rw_options in
     let results =
       List.map (Campaign.exec_case rw_options corpus sup)
         generation.Cluster.reps
     in
     (prepared, generation, corpus, Array.of_list results))

let encode cr = Jsonl.to_string (Codec.case_result_to_json cr)
let decode s = Codec.parse Codec.case_result_of_json s

let test_real_results_cover_the_codec () =
  let _, _, _, results = Lazy.force rw in
  let has f = Array.exists f results in
  check_bool "a report" true (has (fun cr -> cr.Campaign.cr_report <> None));
  check_bool "a concurrent finding with seeds" true
    (has (fun cr ->
         List.exists
           (fun r ->
             match r.Report.origin with
             | Report.Concurrent { seeds = _ :: _; _ } -> true
             | _ -> false)
           cr.Campaign.cr_concurrent));
  check_bool "schedule-search accounting" true
    (has (fun cr -> cr.Campaign.cr_sched.Campaign.sched_candidates > 0))

(* One crash report per [crash_reason], with strings that exercise the
   JSON escapes. *)
let with_crash (cr : Campaign.case_result) corpus reason_kind message =
  let tc = cr.Campaign.cr_tc in
  let reason =
    match reason_kind with
    | 0 ->
      Supervisor.Panicked
        { Fault.panic_sysno = Sysno.Socket; occurrence = 3; message }
    | 1 -> Supervisor.Hung_forever
    | _ -> Supervisor.Worker_lost message
  in
  let crash =
    { Supervisor.c_sender = corpus.(tc.Kit_gen.Testcase.sender);
      c_receiver = corpus.(tc.Kit_gen.Testcase.receiver);
      c_reason = reason;
      c_attempts = 2 }
  in
  { cr with Campaign.cr_crashes = crash :: cr.Campaign.cr_crashes }

let subtrees_equal (a : Campaign.case_result) (b : Campaign.case_result) =
  let reports cr =
    Option.to_list cr.Campaign.cr_report @ cr.Campaign.cr_concurrent
  in
  List.equal
    (fun (x : Report.t) (y : Report.t) ->
      List.equal
           (fun (d : Kit_trace.Compare.diff) (e : Kit_trace.Compare.diff) ->
             Ast.equal d.Kit_trace.Compare.left e.Kit_trace.Compare.left
             && Ast.equal d.Kit_trace.Compare.right e.Kit_trace.Compare.right)
           x.Report.diffs y.Report.diffs)
    (reports a) (reports b)

let prop_case_result_roundtrip =
  QCheck.Test.make ~name:"codec: case results round-trip" ~count:300
    QCheck.(triple small_nat (int_bound 3) string)
    (fun (i, reason_kind, message) ->
      let _, _, corpus, results = Lazy.force rw in
      let cr = results.(i mod Array.length results) in
      let cr =
        if reason_kind = 3 then cr else with_crash cr corpus reason_kind message
      in
      match decode (encode cr) with
      | Ok back -> back = cr && subtrees_equal back cr
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_assembled_from_decoded () =
  (* Folding decoded results gives the byte-identical summary. *)
  let prepared, generation, _, results = Lazy.force rw in
  let results = Array.to_list results in
  let decoded =
    List.map
      (fun cr ->
        match decode (encode cr) with
        | Ok back -> back
        | Error e -> Alcotest.failf "decode failed: %s" e)
      results
  in
  let summary rs =
    let run = Campaign.start prepared generation in
    List.iteri (fun i r -> Campaign.complete run i r 0) rs;
    Proto.summary (Campaign.finish run)
  in
  check_string "summary of decoded results" (summary results)
    (summary decoded)

let arbitrary_spec =
  let strategy =
    QCheck.Gen.(
      oneof
        [ return Cluster.Df; return Cluster.Df_ia;
          map (fun k -> Cluster.Df_st k) (int_range 1 4);
          map (fun n -> Cluster.Rand n) (int_range 1 100_000) ])
  in
  let name =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '-'; '_' ]) (int_range 1 64))
  in
  QCheck.make
    ~print:(fun sp -> Jsonl.to_string (Proto.spec_to_json sp))
    QCheck.Gen.(
      map
        (fun ((sp_name, sp_seed, sp_corpus_size), (sp_strategy, sp_weight),
              (sp_diagnose, sp_schedules)) ->
          { Proto.sp_name; sp_seed; sp_corpus_size; sp_strategy; sp_weight;
            sp_diagnose; sp_schedules })
        (triple
           (triple name int nat)
           (pair strategy small_nat)
           (pair bool (int_range 1 256))))

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"codec: specs round-trip for every strategy"
    ~count:300 arbitrary_spec (fun sp ->
      Codec.parse Proto.spec_of_json (Jsonl.to_string (Proto.spec_to_json sp))
      = Ok sp)

(* --- decoder fuzzing ---------------------------------------------------- *)

let is_error = function Ok _ -> false | Error _ -> true

let flip_bit s bit =
  String.mapi
    (fun j c ->
      if j = bit / 8 then Char.chr (Char.code c lxor (1 lsl (bit mod 8)))
      else c)
    s

let test_codec_fuzz () =
  let _, _, _, results = Lazy.force rw in
  let with_report =
    match
      Array.to_list results
      |> List.find_opt (fun cr -> cr.Campaign.cr_report <> None)
    with
    | Some cr -> cr
    | None -> Alcotest.fail "no reported case to fuzz"
  in
  let valid = encode with_report in
  (* every truncation of a valid record *)
  for cut = 0 to String.length valid - 1 do
    if not (is_error (decode (String.sub valid 0 cut))) then
      Alcotest.failf "truncation at %d decoded" cut
  done;
  (* every single-bit flip: decoding never raises. A flipped digit can
     still decode; the record digest is what keeps flips out, see
     "damaged records never decode" below. *)
  for bit = 0 to (8 * String.length valid) - 1 do
    ignore (decode (flip_bit valid bit) : (Campaign.case_result, string) result)
  done;
  (* random bytes *)
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 2000 do
    let s =
      String.init (Random.State.int st 200) (fun _ ->
          Char.chr (Random.State.int st 256))
    in
    if not (is_error (decode s) && is_error (Codec.parse Proto.spec_of_json s))
    then Alcotest.failf "random bytes decoded: %S" s
  done;
  (* hostile nesting is refused at the parser's depth bound instead of
     being recursed into *)
  let lists n = String.make n '[' ^ String.make n ']' in
  let objects n =
    String.concat "" (List.init n (fun _ -> "{\"a\":"))
    ^ "1" ^ String.make n '}'
  in
  List.iter
    (fun nested ->
      check_bool "shallow nesting parses" false
        (is_error (Jsonl.parse (nested 64)));
      match Jsonl.parse (nested 100_000) with
      | Error msg ->
        check_bool "refused for its depth" true
          (String.starts_with ~prefix:"nesting too deep" msg)
      | Ok _ -> Alcotest.fail "deep nesting parsed")
    [ lists; objects ]

(* --- tenant logs -------------------------------------------------------- *)

(* 16 representatives, two of them reported, searched at 4 schedules:
   the log carries reports, traces and schedule-search accounting. *)
let crash_spec =
  { Proto.default_spec with
    Proto.sp_name = "crash"; sp_seed = 11; sp_corpus_size = 48;
    sp_strategy = Cluster.Rand 16; sp_diagnose = true; sp_schedules = 4 }

let campaign_options = Proto.options_of_spec crash_spec
let straight = lazy (Proto.summary (Campaign.run campaign_options))

let crash_reps =
  lazy
    (Campaign.generate_prepared (Campaign.prepare campaign_options))
        .Cluster.reps

let with_pool f =
  let pool = Pool.create { Pool.default_config with Pool.procs = 1 } in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Run [tn]'s cases on a one-worker pool, activating it first if it is
   pending, until [stop ()] or it drains. The pool could hold 16 cases
   in flight, but each turn queues one, and the poll that writes it
   returns with its result: a stop after a completion leaves nothing in
   flight unless a case outlasted the poll, and a case left in flight
   completes in the next call. *)
let run_cases ?(stop = fun () -> false) pool tn =
  if Tenant.phase tn = Tenant.Pending then Tenant.activate tn pool;
  let j = Option.get (Tenant.jobs tn) in
  while not (stop () || Pool.drained j) do
    List.iter
      (fun slot -> ignore (Pool.dispatch pool j ~slot : bool))
      (Pool.idle_slots pool);
    List.iter (Pool.handle pool j) (fst (Pool.poll pool ~timeout:0.2))
  done

(* Execute everything left and finish: the summary. *)
let drain pool tn =
  run_cases pool tn;
  check_bool "drained" true (Tenant.is_drained tn);
  ignore (Tenant.finish tn : Campaign.t);
  Pool.retire pool ~tenant:(Tenant.id tn);
  Option.get (Tenant.summary tn)

(* The fingerprints of the representatives [log] replays, sorted. *)
(* The representatives whose results the tenant log at [path] holds in
   complete records — what [Tenant.of_checkpoint] replays. *)
let logged path =
  match Caselog.read path ~kind:Tenant.ckpt_kind (fun _ -> Ok ()) with
  | Error e -> Alcotest.failf "%s: %s" path (Checkpoint.error_to_string e)
  | Ok (records, _torn) ->
    let fps = List.concat_map (fun (_, entries) -> List.map fst entries) records in
    List.map Testcase.fingerprint (Lazy.force crash_reps)
    |> List.filter (fun fp -> List.mem fp fps)
    |> List.sort_uniq String.compare

let completed = Test_serve.completed

(* A first save after 3 completions, then 4 appends of 2 each. Returns
   the file contents and, per record, its end offset and the
   fingerprints it added. *)
let build_log dir =
  with_pool (fun pool ->
      let tn =
        Tenant.create ~state_dir:dir ~every:max_int ~id:0 crash_spec
      in
      let path = Filename.concat dir "tenant-crash.ckpt" in
      let records = ref [] and seen = ref [] in
      let save n =
        let target = completed tn + n in
        run_cases ~stop:(fun () -> completed tn >= target) pool tn;
        Tenant.save_checkpoint tn;
        let now = logged path in
        let added = List.filter (fun fp -> not (List.mem fp !seen)) now in
        seen := now;
        records := ((Unix.stat path).Unix.st_size, added) :: !records
      in
      save 3;
      for _ = 1 to 4 do save 2 done;
      check_bool "cases left after the last save" true
        (completed tn < (Tenant.status tn).Proto.ts_total);
      (read_file path, List.rev !records))

let entries_within records cut =
  List.sort String.compare
    (List.concat_map
       (fun (stop, fps) -> if stop <= cut then fps else [])
       records)

(* The container's view of a log cut at [cut]: exactly the records
   wholly inside the prefix, and the rest reported as torn. *)
let check_prefix ~kind records path cut =
  let hl = header_len kind in
  let last_boundary =
    List.fold_left (fun acc (stop, _) -> if stop <= cut then stop else acc)
      hl records
  in
  match Checkpoint.read path ~kind with
  | Error (Checkpoint.Not_checkpoint _ | Checkpoint.Checkpoint_corrupt _)
    when cut < hl -> ()
  | Ok { Checkpoint.records = rs; torn } when cut >= hl ->
    check_int "complete records"
      (List.length (List.filter (fun (s, _) -> s <= cut) records))
      (List.length rs);
    check_int "torn bytes" (cut - last_boundary) torn
  | Ok _ | Error _ -> Alcotest.failf "prefix %d: wrong outcome" cut

(* The tenant's campaign through the execute driver, logged every 2
   completions and killed after 9 — the same shape as [build_log]: the
   file, per record its end offset and the fingerprints it added, and
   the representatives. *)
let build_campaign_log dir =
  let path = Filename.concat dir "campaign.ckpt" in
  let prepared = Campaign.prepare campaign_options in
  let generation = Campaign.generate_prepared prepared in
  let log = Resume.open_log ~every:2 path campaign_options in
  let records = ref [] and added = ref [] in
  let log =
    { log with
      Campaign.record =
        (fun tc r execs ->
          added := Testcase.fingerprint tc :: !added;
          log.Campaign.record tc r execs);
      save =
        (fun () ->
          log.Campaign.save ();
          records :=
            ((Unix.stat path).Unix.st_size, List.sort_uniq String.compare !added)
            :: !records;
          added := []) }
  in
  (match
     Campaign.drive
       (Campaign.start ~log:(Resume.killed_after 9 log) prepared generation)
   with
  | _ -> Alcotest.fail "the campaign must be killed"
  | exception Resume.Killed -> ());
  (read_file path, List.rev !records, generation.Cluster.reps)

(* Representatives whose fingerprint the records within [cut] hold. *)
let replayable records reps cut =
  let fps = entries_within records cut in
  List.length
    (List.filter (fun tc -> List.mem (Testcase.fingerprint tc) fps) reps)

let campaign_log_crash_every_byte () =
  with_dir "kit-campaign-log" (fun dir ->
      let log, records, reps = build_campaign_log dir in
      let first_end = fst (List.hd records) in
      with_dir "kit-campaign-cut" (fun cut_dir ->
          let path = Filename.concat cut_dir "campaign.ckpt" in
          for cut = 0 to String.length log do
            write_file path (String.sub log 0 cut);
            check_prefix ~kind:Caselog.campaign_kind records path cut;
            match
              Caselog.campaign ~resume:true ~every:2 path campaign_options
            with
            | Ok l when cut >= first_end ->
              if Resume.replayed l reps <> replayable records reps cut then
                Alcotest.failf "prefix %d: wrong entries" cut
            | Error _ when cut < first_end -> ()
            | Ok _ | Error _ -> Alcotest.failf "prefix %d: wrong log" cut
          done;
          List.iter
            (fun cut ->
              write_file path (String.sub log 0 cut);
              match Resume.run_process ~every:2 path campaign_options with
              | _, None -> Alcotest.fail "an unkilled process must finish"
              | replayed, Some c ->
                check_int "resumed = entries in complete records"
                  (replayable records reps cut) replayed;
                check_string "summary = straight-through run"
                  (Lazy.force straight) (Proto.summary c);
                check_bool "the log is deleted with the result built" false
                  (Sys.file_exists path))
            (List.concat_map (fun (stop, _) -> [ stop; stop + 5 ]) records
            |> List.filter (fun c -> c <= String.length log))))

(* Simulate a crash after every byte of the log by truncating a copy
   there: each prefix holds exactly the records wholly inside it, and a
   tenant resumed from a prefix finishes as if it had never stopped.
   The campaign log of the same campaign gets the same treatment. *)
let test_tenant_log_crash_every_byte () =
  with_pool (fun pool ->
      check_string "a tenant on the pool = a solo campaign" (Lazy.force straight)
        (drain pool (Tenant.create ~every:max_int ~id:0 crash_spec)));
  with_dir "kit-tenant-log" (fun dir ->
      let log, records = build_log dir in
      let hl = header_len Tenant.ckpt_kind in
      let first_end = fst (List.hd records) in
      let last_boundary cut =
        List.fold_left
          (fun acc (stop, _) -> if stop <= cut then stop else acc)
          hl records
      in
      with_dir "kit-tenant-cut" (fun cut_dir ->
          let path = Filename.concat cut_dir "tenant-crash.ckpt" in
          let load id = Tenant.of_checkpoint ~every:max_int ~id path in
          for cut = 0 to String.length log do
            write_file path (String.sub log 0 cut);
            check_prefix ~kind:Tenant.ckpt_kind records path cut;
            match load 1 with
            | Ok t when cut >= first_end ->
              if logged path <> entries_within records cut then
                Alcotest.failf "prefix %d: wrong entries" cut;
              check_int "torn" (cut - last_boundary cut) (Tenant.torn t)
            | Error _ when cut < first_end ->
              (* no complete record, so no spec to rebuild from; the
                 first save is a rename, so no crash leaves this file *)
              ()
            | Ok _ | Error _ -> Alcotest.failf "prefix %d: wrong tenant" cut
          done;
          (* resume a sample of prefixes and drain them *)
          let cuts =
            List.concat_map (fun (stop, _) -> [ stop; stop + 5 ]) records
            |> List.filter (fun c -> c <= String.length log)
          in
          let reload what =
            match load 3 with
            | Ok t' ->
              check_int (what ^ ": no torn tail") 0 (Tenant.torn t');
              t'
            | Error e -> Alcotest.failf "%s: %s" what e
          in
          with_pool (fun pool ->
              List.iter
                (fun cut ->
                  write_file path (String.sub log 0 cut);
                  match load 2 with
                  | Error e -> Alcotest.failf "prefix %d: %s" cut e
                  | Ok t ->
                    (* the first save after a resume rewrites the file
                       without the torn tail *)
                    Tenant.save_checkpoint t;
                    ignore (reload "compacted" : Tenant.t);
                    let summary = drain pool t in
                    check_int "resumed = entries in complete records"
                      (List.length (entries_within records cut))
                      (Tenant.resumed t);
                    check_string "summary = straight-through run"
                      (Lazy.force straight) summary;
                    (* the finish is appended; the last record's flag and
                       summary win *)
                    Tenant.save_checkpoint t;
                    let t' = reload "finished" in
                    check_bool "finished state survives" true
                      (Tenant.phase t' = Tenant.Finished
                      && Tenant.summary t' = Some summary
                      && List.length (logged path)
                         = List.length (Lazy.force crash_reps)))
                cuts)));
  campaign_log_crash_every_byte ()

(* A bit flipped anywhere in a record that has a valid record after it
   is never decoded: the digest rejects the file. *)
let test_tenant_log_bit_flips () =
  with_dir "kit-tenant-flip" (fun dir ->
      let log, records = build_log dir in
      let path = Filename.concat dir "tenant-crash.ckpt" in
      let second_start, second_end =
        match records with
        | (a, _) :: (b, _) :: _ -> (a, b)
        | _ -> Alcotest.fail "need two records"
      in
      for bit = 8 * second_start to (8 * second_end) - 1 do
        write_file path (flip_bit log bit);
        match Tenant.of_checkpoint ~every:1 ~id:1 path with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "bit %d flipped in record 1 loaded" bit
      done;
      (* random payloads with valid digests: typed errors *)
      let st = Random.State.make [| 7 |] in
      let base = String.sub log 0 second_start in
      for _ = 1 to 300 do
        write_file path base;
        Checkpoint.append path
          (String.init (Random.State.int st 300) (fun _ ->
               Char.chr (Random.State.int st 256)));
        match Tenant.of_checkpoint ~every:1 ~id:1 path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "a random record decoded"
      done)

(* --- old kinds ----------------------------------------------------------- *)

(* A resumed daemon: old-kind files — older tenant logs, and the retired
   campaign execute checkpoint and pool shard log — are listed as
   unreadable (and no campaign log either), a torn log resumes with the
   torn tail named, and the daemon keeps serving. *)
let test_resume_old_kinds_and_torn_tail () =
  with_dir "kit-resume" (fun dir ->
      List.iter
        (fun kind ->
          let path = Filename.concat dir ("tenant-" ^ kind ^ ".ckpt") in
          Checkpoint.write path ~kind [ {|{"old layout":[1,2,3]}|} ];
          check_bool (kind ^ " is an Error") true
            (is_error (Tenant.of_checkpoint ~every:1 ~id:0 path));
          check_bool (kind ^ " is no campaign log") true
            (match
               Caselog.campaign ~resume:true ~every:1 path campaign_options
             with
            | Error (Caselog.Unreadable _) -> true
            | Ok _ | Error (Caselog.Options_differ _) -> false))
        [ "serve-tenant"; "serve-tenant-v2"; "serve-tenant-v3";
          "campaign-execute-v5"; "pool-shards-v4" ];
      let log, _ = build_log dir in
      write_file (Filename.concat dir "tenant-crash.ckpt") (log ^ "torn");
      let cfg =
        { Sched.default_config with
          Sched.sc_pool = { Pool.default_config with Pool.procs = 1 };
          sc_state_dir = Some dir;
          sc_checkpoint_every = 1 }
      in
      let s = Sched.create cfg in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown s)
        (fun () ->
          let restored = Sched.resume s in
          check_int "six files listed" 6 (List.length restored);
          List.iter
            (fun (file, state) ->
              if file <> "crash" then
                check_bool (file ^ " listed as unreadable") true
                  (String.starts_with ~prefix:"unreadable checkpoint" state))
            restored;
          check_string "the torn tail is named"
            "pending; dropped a 4-byte torn tail"
            (List.assoc "crash" restored);
          (* the daemon keeps serving: the resumed tenant and a new one *)
          let spec =
            { crash_spec with Proto.sp_name = "after"; sp_diagnose = false }
          in
          (match Sched.request s (Proto.Submit spec) with
          | Proto.Accepted _ -> ()
          | _ -> Alcotest.fail "submission after bad files rejected");
          Test_serve.drain s;
          let results name =
            match Sched.request s (Proto.Results name) with
            | Proto.Summary got -> got
            | _ -> Alcotest.failf "no summary for %s" name
          in
          check_string "resumed tenant = straight-through run"
            (Lazy.force straight) (results "crash");
          check_string "new tenant = solo"
            (Proto.summary (Campaign.run (Proto.options_of_spec spec)))
            (results "after")))

let suite =
  [
    Alcotest.test_case "log: torn tail dropped, mid-file damage rejected"
      `Quick test_log_torn_tail_rule;
    Alcotest.test_case "codec: real results carry reports and seeds" `Quick
      test_real_results_cover_the_codec;
    QCheck_alcotest.to_alcotest prop_case_result_roundtrip;
    Alcotest.test_case "codec: decoded results assemble the same summary"
      `Quick test_assembled_from_decoded;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
    Alcotest.test_case "codec: truncated, flipped and random input" `Quick
      test_codec_fuzz;
    Alcotest.test_case "tenant log: a crash at every byte" `Quick
      test_tenant_log_crash_every_byte;
    Alcotest.test_case "tenant log: damaged records never decode" `Quick
      test_tenant_log_bit_flips;
    Alcotest.test_case "resume: old kinds unreadable, torn tail named"
      `Quick test_resume_old_kinds_and_torn_tail;
  ]
