(* Tests for the fault-injection plane and the supervised execution
   runtime: fault plane mechanics, schedule parsing, recovery in
   Runner/Supervisor, bounded mask cache, resume from campaign
   case-result logs, and the headline robustness properties — transient
   fault schedules and worker deaths never change campaign results;
   permanent crashers are quarantined exactly once. *)

module K = Kit_kernel
module Fault = Kit_kernel.Fault
module Sysno = Kit_abi.Sysno
module Syzlang = Kit_abi.Syzlang
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Supervisor = Kit_exec.Supervisor
module Campaign = Kit_core.Campaign
module Caselog = Kit_core.Caselog
module Filter = Kit_detect.Filter

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let sysno name =
  match Sysno.of_string name with
  | Some s -> s
  | None -> Alcotest.failf "unknown sysno %s" name

let sched s =
  match Fault.parse_schedule s with
  | Ok sched -> sched
  | Error e -> Alcotest.failf "parse_schedule %S: %s" s e

(* --- plane mechanics ------------------------------------------------------- *)

let test_transient_wears_off () =
  let t = Fault.of_schedule (sched "panic:socket:2") in
  let fire () = Fault.on_syscall t (sysno "socket") in
  (try
     fire ();
     Alcotest.fail "first occurrence should panic"
   with Fault.Kernel_panic i -> check_int "occurrence 1" 1 i.Fault.occurrence);
  (try
     fire ();
     Alcotest.fail "second occurrence should panic"
   with Fault.Kernel_panic i -> check_int "occurrence 2" 2 i.Fault.occurrence);
  fire ();
  (* worn off *)
  Fault.on_syscall t (sysno "read");
  let c = Fault.counters t in
  check_int "2 panics fired" 2 c.Fault.panics;
  check_bool "residual schedule empty" true (Fault.schedule t = [])

let test_permanent_keeps_firing () =
  let t = Fault.of_schedule (sched "panic:socket:perm") in
  for i = 1 to 5 do
    try
      Fault.on_syscall t (sysno "socket");
      Alcotest.fail "permanent fault should always panic"
    with Fault.Kernel_panic info ->
      check_int "occurrence counts up" i info.Fault.occurrence
  done;
  check_bool "still armed" true
    (Fault.schedule t = sched "panic:socket:perm")

let test_fuel_deadline () =
  let t = Fault.none () in
  Fault.set_fuel_limit t (Some 3);
  Fault.begin_execution t;
  let s = sysno "read" in
  Fault.on_syscall t s;
  Fault.on_syscall t s;
  Fault.on_syscall t s;
  (try
     Fault.on_syscall t s;
     Alcotest.fail "4th syscall should exhaust a 3-unit tank"
   with Fault.Fuel_exhausted -> ());
  (* a new execution refills the tank *)
  Fault.begin_execution t;
  Fault.on_syscall t s;
  check_int "one exhaustion" 1 (Fault.counters t).Fault.fuel_exhaustions

let test_hang_burns_fuel () =
  let t = Fault.of_schedule (sched "hang:socket:1") in
  Fault.set_fuel_limit t (Some 1000);
  Fault.begin_execution t;
  (try
     Fault.on_syscall t (sysno "socket");
     Alcotest.fail "hang fault should exhaust fuel"
   with Fault.Fuel_exhausted -> ());
  let c = Fault.counters t in
  check_int "hang fired" 1 c.Fault.hangs;
  check_int "counted as exhaustion" 1 c.Fault.fuel_exhaustions

let test_boot_and_restore_faults () =
  let t = Fault.of_schedule (sched "boot:1,snap:1") in
  (try
     Fault.on_boot t;
     Alcotest.fail "boot failure armed"
   with Fault.Boot_failed -> ());
  Fault.on_boot t;
  (try
     Fault.on_restore t;
     Alcotest.fail "snapshot corruption armed"
   with Fault.Snapshot_corrupt -> ());
  Fault.on_restore t;
  let c = Fault.counters t in
  check_int "boot failures" 1 c.Fault.boot_failures;
  check_int "corruptions" 1 c.Fault.snapshot_corruptions

(* --- schedule format and generation ---------------------------------------- *)

let test_schedule_round_trip () =
  let s = sched "panic:socket:2,hang:read:1,boot:3,snap:perm" in
  check_bool "round-trips" true (sched (Fault.schedule_to_string s) = s);
  (* default occurrence count is 1 *)
  check_bool "default k = 1" true (sched "panic:socket" = sched "panic:socket:1");
  check_bool "empty schedule" true (sched "" = []);
  (* malformed inputs are errors, not crashes *)
  List.iter
    (fun bad ->
      match Fault.parse_schedule bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "panic"; "panic:nosuchsyscall"; "frobnicate:socket"; "boot:x"; "panic:socket:0:0" ]

let test_schedule_of_seed () =
  let a = Fault.schedule_of_seed ~seed:7 ~intensity:12 in
  let b = Fault.schedule_of_seed ~seed:7 ~intensity:12 in
  check_bool "deterministic" true (a = b);
  check_int "intensity = length" 12 (List.length a);
  List.iter
    (fun (arm : Fault.arming) ->
      match arm.Fault.persistence with
      | Fault.Transient k -> check_bool "transient, k in 1..3" true (k >= 1 && k <= 3)
      | Fault.Permanent -> Alcotest.fail "a permanent fault")
    a;
  check_bool "different seeds differ" true
    (a <> Fault.schedule_of_seed ~seed:8 ~intensity:12)

(* --- runner-level recovery -------------------------------------------------- *)

let receiver_prog = "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)"
let sender_prog = "r0 = socket(3)"

let runner_with schedule =
  let fault = Fault.of_schedule schedule in
  Runner.create (Env.create ~fault (K.Config.v5_13 ()))

let test_try_execute_statuses () =
  let sender = Syzlang.parse sender_prog in
  let receiver = Syzlang.parse receiver_prog in
  (* transient panic: first attempt crashes, the fault wears off and the
     next attempt completes with the fault-free outcome *)
  let clean = Runner.execute (runner_with []) ~sender ~receiver in
  let r = runner_with (sched "panic:open:1") in
  (match Runner.try_execute r ~sender ~receiver with
  | Runner.Crashed info ->
    check_bool "panicked in open" true (info.Fault.panic_sysno = sysno "open")
  | Runner.Completed _ | Runner.Hung -> Alcotest.fail "expected a crash");
  (match Runner.try_execute r ~sender ~receiver with
  | Runner.Completed outcome ->
    check_bool "identical to fault-free outcome" true
      (Marshal.to_string outcome [] = Marshal.to_string clean [])
  | Runner.Crashed _ | Runner.Hung -> Alcotest.fail "fault should have worn off");
  (* hang fault *)
  let r = runner_with (sched "hang:read:1") in
  (match Runner.try_execute r ~sender ~receiver with
  | Runner.Hung -> ()
  | Runner.Completed _ | Runner.Crashed _ -> Alcotest.fail "expected a hang")

let test_mask_cache_bounded () =
  let env = Env.create (K.Config.v5_13 ()) in
  let r = Runner.create ~mask_cache_cap:2 ~obs:(Kit_obs.Obs.create ()) env in
  let evictions () = Kit_obs.Metrics.counter_value r.Runner.c_evictions in
  let p1 = Syzlang.parse receiver_prog in
  let p2 = Syzlang.parse "r0 = read(\"/proc/net/sockstat\")" in
  let p3 = Syzlang.parse "r0 = gethostname()" in
  let mask p = ignore (Runner.nondet_mask r p : Kit_trace.Ast.t) in
  mask p1;
  mask p1;
  let hits, misses, live = Runner.mask_cache_stats r in
  check_int "one miss" 1 misses;
  check_int "one hit" 1 hits;
  check_int "one live entry" 1 live;
  mask p2;
  mask p3;
  let _, _, live = Runner.mask_cache_stats r in
  check_int "capped at 2 entries" 2 live;
  check_int "one eviction so far" 1 (evictions ());
  (* p1 is the least recently used after p2/p3, so it was the entry
     evicted and misses again (evicting p2 in turn) *)
  mask p1;
  let hits, misses, live = Runner.mask_cache_stats r in
  check_int "eviction causes re-miss" 4 misses;
  check_int "hits unchanged" 1 hits;
  check_int "still capped" 2 live;
  check_int "two evictions" 2 (evictions ());
  (* re-inserting p1 evicted p2, not the more recently used p3 — under
     FIFO insertion order p3 would be the one gone *)
  mask p3;
  let hits, _, _ = Runner.mask_cache_stats r in
  check_int "LRU kept the recently used entry" 2 hits

(* --- supervisor ------------------------------------------------------------- *)

let test_supervisor_recovers_transient () =
  let sender = Syzlang.parse sender_prog in
  let receiver = Syzlang.parse receiver_prog in
  let clean =
    match
      Supervisor.execute (Supervisor.create (K.Config.v5_13 ())) ~sender ~receiver
    with
    | Runner.Completed o -> o
    | Runner.Crashed _ | Runner.Hung -> Alcotest.fail "clean run crashed"
  in
  let sup =
    Supervisor.create
      ~fault:(Fault.of_schedule (sched "panic:open:2,hang:read:1,snap:1"))
      (K.Config.v5_13 ())
  in
  (match Supervisor.execute sup ~sender ~receiver with
  | Runner.Completed o ->
    check_bool "recovered outcome identical" true
      (Marshal.to_string o [] = Marshal.to_string clean [])
  | Runner.Crashed _ | Runner.Hung -> Alcotest.fail "supervisor should recover");
  check_bool "retried" true (sup.Supervisor.stats.Supervisor.retries >= 1);
  check_bool "rebooted after corruption" true
    (sup.Supervisor.stats.Supervisor.reboots >= 1);
  check_bool "recorded virtual backoff" true
    (sup.Supervisor.stats.Supervisor.backoff_ms > 0.0);
  check_int "nothing quarantined" 0 (Supervisor.quarantine_count sup)

let test_supervisor_quarantines_permanent () =
  let sender = Syzlang.parse sender_prog in
  let receiver = Syzlang.parse receiver_prog in
  let cfg = { Supervisor.default_config with Supervisor.max_retries = 3 } in
  let sup =
    Supervisor.create ~cfg
      ~fault:(Fault.of_schedule (sched "panic:open:perm"))
      (K.Config.v5_13 ())
  in
  (match Supervisor.execute sup ~sender ~receiver with
  | Runner.Crashed _ -> ()
  | Runner.Completed _ | Runner.Hung -> Alcotest.fail "expected permanent crash");
  match Supervisor.quarantined_since sup 0 with
  | [ crash ] ->
    check_int "initial try + 3 retries" 4 crash.Supervisor.c_attempts;
    check_bool "reason is a panic" true
      (match crash.Supervisor.c_reason with
      | Supervisor.Panicked _ -> true
      | Supervisor.Hung_forever | Supervisor.Worker_lost _ -> false)
  | q -> Alcotest.failf "expected 1 quarantined crash, got %d" (List.length q)

let test_supervisor_quarantined_since () =
  (* Two permanent crashers: the delta accessor must slice the
     quarantine at any count, oldest first, and agree with the full
     list. *)
  let sender = Syzlang.parse sender_prog in
  let receiver = Syzlang.parse receiver_prog in
  let cfg = { Supervisor.default_config with Supervisor.max_retries = 1 } in
  let sup =
    Supervisor.create ~cfg
      ~fault:(Fault.of_schedule (sched "panic:open:perm,panic:socket:perm"))
      (K.Config.v5_13 ())
  in
  check (Alcotest.list Alcotest.pass) "empty delta on empty quarantine" []
    (Supervisor.quarantined_since sup 0);
  ignore (Supervisor.execute sup ~sender ~receiver : Runner.status);
  let q1 = Supervisor.quarantine_count sup in
  ignore (Supervisor.execute sup ~sender:receiver ~receiver:sender
           : Runner.status);
  let all = Supervisor.quarantined_since sup 0 in
  check_int "since 0 = full list" (Supervisor.quarantine_count sup)
    (List.length all);
  let delta = Supervisor.quarantined_since sup q1 in
  check_int "delta covers the remainder"
    (List.length all - q1) (List.length delta);
  check_bool "delta is the oldest-first suffix" true
    (delta = List.filteri (fun i _ -> i >= q1) all);
  check (Alcotest.list Alcotest.pass) "past-the-end delta empty" []
    (Supervisor.quarantined_since sup (List.length all))

let test_supervisor_gives_up_on_dead_vm () =
  try
    ignore
      (Supervisor.create
         ~cfg:{ Supervisor.default_config with Supervisor.max_reboots = 2 }
         ~fault:(Fault.of_schedule (sched "boot:perm"))
         (K.Config.v5_13 ())
        : Supervisor.t);
    Alcotest.fail "a VM that never boots must raise Gave_up"
  with Supervisor.Gave_up _ -> ()

(* --- campaign-level robustness ---------------------------------------------- *)

let small_options =
  { Campaign.default_options with Campaign.corpus_size = 48 }

(* One fault-free baseline shared by the equivalence properties. *)
let baseline = lazy (Campaign.run small_options)

(* Reports + funnel + quarantine. Deliberately NOT executions: retries
   re-execute programs, and a restarted (chunked) campaign recomputes
   non-determinism masks its dead process had cached — more executions,
   same results. [No_sharing] so the fingerprint is structural: the
   baseline cache makes reports physically share receiver-solo traces,
   and how much sharing survives depends on cache history, which is
   exactly what this fingerprint must not observe. *)
let campaign_fingerprint (c : Campaign.t) =
  Marshal.to_string
    (c.Campaign.reports, c.Campaign.funnel, c.Campaign.quarantined)
    [ Marshal.No_sharing ]

(* The headline invariant: any transient fault schedule covered by the
   retry budget yields byte-identical reports + funnel. *)
let prop_transient_faults_preserve_results =
  QCheck.Test.make ~name:"transient fault schedules never change campaign results"
    ~count:6
    QCheck.(pair small_nat (int_bound 8))
    (fun (seed, intensity) ->
      let faults = Fault.schedule_of_seed ~seed ~intensity in
      let c =
        Campaign.run { small_options with Campaign.faults }
      in
      campaign_fingerprint c = campaign_fingerprint (Lazy.force baseline))

(* The property above draws seeds 0..99 at intensities 0..8. Boot
   failures past the reboot budget cannot be recovered from, so the
   generator caps them; check every input the property can draw. *)
let test_seeded_boot_failures_within_budget () =
  for seed = 0 to 99 do
    for intensity = 0 to 8 do
      let boots =
        List.fold_left
          (fun acc (a : Fault.arming) ->
            match (a.Fault.fault, a.Fault.persistence) with
            | Fault.Boot_failure, Fault.Transient k -> acc + k
            | _ -> acc)
          0
          (Fault.schedule_of_seed ~seed ~intensity)
      in
      if boots > Supervisor.default_config.Supervisor.max_reboots then
        Alcotest.failf "seed %d intensity %d: %d boot failures" seed intensity
          boots
    done
  done

(* Seed 71 draws boot:3 three times by intensity 6, one more boot than
   the budget before the cap. *)
let test_capped_boot_schedule_recovers () =
  let faults = Fault.schedule_of_seed ~seed:71 ~intensity:6 in
  let c = Campaign.run { small_options with Campaign.faults } in
  check_bool "same results as fault-free" true
    (campaign_fingerprint c = campaign_fingerprint (Lazy.force baseline))

let test_permanent_crashers_quarantined_once () =
  let c =
    Campaign.run
      { small_options with
        Campaign.faults = sched "panic:read:perm";
        max_retries = 2 }
  in
  let q = c.Campaign.quarantined in
  check_bool "something quarantined" true (q <> []);
  (* exactly one crash-log entry per crashing representative: completed
     and quarantined cases partition the representatives, so a case
     quarantined twice (or silently dropped) breaks the identity *)
  let b = Lazy.force baseline in
  check_int "completed + quarantined = all representatives"
    b.Campaign.funnel.Filter.executed
    (c.Campaign.funnel.Filter.executed + List.length q);
  check_bool "every quarantine entry is a panic" true
    (List.for_all
       (fun (cr : Supervisor.crash) ->
         match cr.Supervisor.c_reason with
         | Supervisor.Panicked i -> i.Fault.panic_sysno = sysno "read"
         | Supervisor.Hung_forever | Supervisor.Worker_lost _ -> false)
       q)

(* --- checkpoint / resume -----------------------------------------------------

   One process per chunk, each killed after [every] completions and
   restarted from the case-result log. *)

let prop_chunked_equals_straight =
  QCheck.Test.make ~name:"chunked checkpointed execution = straight-through"
    ~count:4
    QCheck.(int_range 4 60)
    (fun every ->
      Resume.with_path "kit" (fun path ->
          campaign_fingerprint (Resume.run_chunked ~every path small_options)
          = campaign_fingerprint (Lazy.force baseline)))

let log_entries path =
  match
    Caselog.read path ~kind:Caselog.campaign_kind
      (Kit_core.Codec.field "campaign" Result.ok)
  with
  | Ok (records, torn) -> (List.length (List.concat_map snd records), torn)
  | Error e ->
    Alcotest.failf "read: %s" (Kit_core.Checkpoint.error_to_string e)

let test_checkpoint_file_round_trip () =
  Resume.with_path "kit" (fun path ->
      (match Resume.run_process ~kill:10 ~every:4 path small_options with
      | _, Some _ -> Alcotest.fail "48-program campaign has more than 10 reps"
      | _, None -> ());
      check (Alcotest.pair Alcotest.int Alcotest.int)
        "every completion before the kill is in the file" (10, 0)
        (log_entries path);
      match Resume.run_process ~every:4 path small_options with
      | _, None -> Alcotest.fail "an unkilled process must finish"
      | replayed, Some resumed ->
        check_int "the logged cases replay" 10 replayed;
        check_bool "resumed run matches baseline" true
          (campaign_fingerprint resumed
          = campaign_fingerprint (Lazy.force baseline));
        check_bool "the file is deleted once the result is built" false
          (Sys.file_exists path))

let test_checkpoint_rejects_garbage () =
  Resume.with_path "kit" (fun path ->
      let garbage = "not a checkpoint" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc garbage);
      (match Caselog.campaign ~resume:true ~every:1 path small_options with
      | Error (Caselog.Unreadable _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Caselog.error_to_string e)
      | Ok _ -> Alcotest.fail "garbage must not load");
      check_bool "the file is left alone" true
        (In_channel.with_open_bin path In_channel.input_all = garbage))

(* Every option that changes a case result is in the header, and a log
   taken under another value is refused by name; options that change no
   result are not recorded. *)
let test_resume_validates_options () =
  Resume.with_path "kit" (fun path ->
      ignore (Resume.run_process ~kill:10 ~every:4 path small_options);
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let o = small_options in
      List.iter
        (fun (name, options) ->
          match Caselog.campaign ~resume:true ~every:4 path options with
          | Error (Caselog.Options_differ got) ->
            check Alcotest.string "the refusal names the option" name got
          | Error e ->
            Alcotest.failf "%s: wrong error: %s" name
              (Caselog.error_to_string e)
          | Ok _ -> Alcotest.failf "a different %s must be refused" name)
        [ ("config", { o with Campaign.config = K.Config.v5_13_rw () });
          ("spec", { o with Campaign.spec = Kit_spec.Spec.refined });
          ("strategy", { o with Campaign.strategy = Kit_gen.Cluster.Rand 16 });
          ("seed", { o with Campaign.seed = 8 });
          ("corpus_size", { o with Campaign.corpus_size = 64 });
          ("reruns", { o with Campaign.reruns = 2 });
          ("fuel", { o with Campaign.fuel = o.Campaign.fuel + 1 });
          ("max_retries", { o with Campaign.max_retries = 5 });
          ("faults", { o with Campaign.faults = sched "panic:socket:1" });
          ("schedules", { o with Campaign.schedules = 64 }) ];
      check_bool "refusals leave the file alone" true
        (In_channel.with_open_bin path In_channel.input_all = bytes);
      List.iter
        (fun options ->
          match Caselog.campaign ~resume:true ~every:4 path options with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Caselog.error_to_string e))
        [ { o with Campaign.domains = 4 };
          { o with Campaign.baseline_cache = false };
          { o with Campaign.diagnose = false } ])

let suite =
  [
    Alcotest.test_case "transient fault wears off" `Quick
      test_transient_wears_off;
    Alcotest.test_case "permanent fault keeps firing" `Quick
      test_permanent_keeps_firing;
    Alcotest.test_case "fuel deadline" `Quick test_fuel_deadline;
    Alcotest.test_case "hang fault burns fuel" `Quick test_hang_burns_fuel;
    Alcotest.test_case "boot and restore faults" `Quick
      test_boot_and_restore_faults;
    Alcotest.test_case "schedule parse/print round-trip" `Quick
      test_schedule_round_trip;
    Alcotest.test_case "seeded schedules are deterministic" `Quick
      test_schedule_of_seed;
    Alcotest.test_case "try_execute reports crash/hang/completion" `Quick
      test_try_execute_statuses;
    Alcotest.test_case "mask cache is bounded with LRU eviction" `Quick
      test_mask_cache_bounded;
    Alcotest.test_case "supervisor recovers from transient faults" `Quick
      test_supervisor_recovers_transient;
    Alcotest.test_case "supervisor quarantines permanent crashers" `Quick
      test_supervisor_quarantines_permanent;
    Alcotest.test_case "supervisor quarantine delta accessor" `Quick
      test_supervisor_quarantined_since;
    Alcotest.test_case "supervisor gives up on a dead VM" `Quick
      test_supervisor_gives_up_on_dead_vm;
    QCheck_alcotest.to_alcotest prop_transient_faults_preserve_results;
    Alcotest.test_case "seeded boot failures fit the reboot budget" `Quick
      test_seeded_boot_failures_within_budget;
    Alcotest.test_case "capped boot schedule recovers (seed 71)" `Quick
      test_capped_boot_schedule_recovers;
    Alcotest.test_case "permanent crashers quarantined exactly once" `Quick
      test_permanent_crashers_quarantined_once;
    QCheck_alcotest.to_alcotest prop_chunked_equals_straight;
    Alcotest.test_case "checkpoint file round-trip + resume" `Quick
      test_checkpoint_file_round_trip;
    Alcotest.test_case "checkpoint loader rejects garbage" `Quick
      test_checkpoint_rejects_garbage;
    Alcotest.test_case "resume validates the campaign fingerprint" `Quick
      test_resume_validates_options;
  ]
