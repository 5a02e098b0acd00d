(* Tests for the execution engine: the snapshot environment, two-phase
   execution, non-determinism masking and the runner's caches. *)

module K = Kit_kernel
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Lru = Kit_exec.Lru

module Int_lru = Lru.Make (struct
  type t = int

  let hash = Hashtbl.hash
  let equal = Int.equal
end)
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang
module Ast = Kit_trace.Ast
module Compare = Kit_trace.Compare
module Metrics = Kit_obs.Metrics

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let p = Syzlang.parse

(* An outcome as plain data: legacy trees compare by [=] on every
   label, value, det flag and child. *)
let outcome_view (o : Runner.outcome) =
  let diff (d : Compare.diff) =
    (d.Compare.path, Legacy.to_legacy d.Compare.left, Legacy.to_legacy d.Compare.right)
  in
  ( Legacy.to_legacy o.Runner.trace_a,
    Legacy.to_legacy o.Runner.trace_b,
    List.map diff o.Runner.raw_diffs,
    List.map diff o.Runner.masked_diffs,
    o.Runner.interfered )

let test_env_reset_restores_state () =
  let env = Env.create (K.Config.v5_13 ()) in
  Env.reset env ~base:env.Env.base0;
  let _ =
    K.Interp.run env.Env.kernel ~pid:env.Env.sender_pid (p "r0 = socket(3)")
  in
  Env.reset env ~base:env.Env.base0;
  let results =
    K.Interp.run env.Env.kernel ~pid:env.Env.receiver_pid
      (p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  match List.rev results with
  | last :: _ ->
    (match last.K.Interp.ret.K.Sysret.out with
    | K.Sysret.P_str content ->
      check Alcotest.string "rolled back" "Type Device      Function" content
    | _ -> Alcotest.fail "expected content")
  | [] -> Alcotest.fail "no results"

let test_env_base_applied () =
  let env = Env.create (K.Config.v5_13 ()) in
  Env.reset env ~base:555_000;
  check_int "clock base" 555_000 (K.State.now env.Env.kernel)

let test_interference_detected () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = socket(3)")
      ~receiver:(p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  check_bool "raw divergence" true (outcome.Runner.raw_diffs <> []);
  check_bool "masked divergence" true (outcome.Runner.masked_diffs <> []);
  check (Alcotest.list Alcotest.int) "interfered call" [ 1 ]
    outcome.Runner.interfered

let test_no_interference_on_fixed_kernel () =
  let env = Env.create (K.Config.fixed ()) in
  let runner = Runner.create env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = socket(3)")
      ~receiver:(p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  check_bool "no divergence at all" true (outcome.Runner.raw_diffs = [])

let test_timing_masked () =
  (* clock_gettime diverges raw (the sender consumed time) but must be
     masked as non-deterministic. *)
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = getpid()")
      ~receiver:(p "r0 = clock_gettime()")
  in
  check_bool "raw divergence from timing" true (outcome.Runner.raw_diffs <> []);
  check_bool "masked away" true (outcome.Runner.masked_diffs = [])

let test_timing_and_leak_coexist () =
  (* Genuine interference survives even when the receiver also reads the
     clock. *)
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = socket(3)")
      ~receiver:
        (p "r0 = clock_gettime()\nr1 = open(\"/proc/net/ptype\")\nr2 = read(r1)")
  in
  check (Alcotest.list Alcotest.int) "only the read is interfered" [ 2 ]
    outcome.Runner.interfered

let test_mask_cached_per_receiver () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create ~reruns:3 ~baseline_cache:false env in
  let receiver = p "r0 = clock_gettime()" in
  let sender = p "r0 = getpid()" in
  let _ = Runner.execute runner ~sender ~receiver in
  let execs_after_first = (Runner.executions runner) in
  let _ = Runner.execute runner ~sender ~receiver in
  let execs_after_second = (Runner.executions runner) in
  (* Second execution reuses the cached mask: exactly two runs (A and B),
     no re-profiling of non-determinism. *)
  check_int "mask cache hit" (execs_after_first + 2) execs_after_second

let test_baseline_cached_per_receiver () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create ~reruns:3 env in
  let receiver = p "r0 = clock_gettime()" in
  let sender = p "r0 = getpid()" in
  let o1 = Runner.execute runner ~sender ~receiver in
  let execs_after_first = Runner.executions runner in
  let o2 = Runner.execute runner ~sender ~receiver in
  let execs_after_second = Runner.executions runner in
  (* Second execution reuses both the cached baseline trace (execution B)
     and the cached mask: exactly one run (A). *)
  check_int "baseline + mask cache hit" (execs_after_first + 1)
    execs_after_second;
  let bhits, bmisses, blive = Runner.baseline_cache_stats runner in
  check_int "baseline misses" 1 bmisses;
  check_bool "baseline hits" true (bhits >= 1);
  check_int "baseline live" 1 blive;
  check_bool "outcomes agree" true
    (o1.Runner.interfered = o2.Runner.interfered
    && o1.Runner.masked_diffs = o2.Runner.masked_diffs)

type lru_op = Find of int | Add of int * int

let prop_lru_matches_model =
  (* The stamp-queue LRU against a recency-ordered association list:
     same lookups, same live size, and the same entries evicted, in
     the same order. *)
  QCheck.Test.make ~name:"lru = recency-list model" ~count:300
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 0 60)
           (make
              ~print:(function
                | Find k -> Printf.sprintf "find %d" k
                | Add (k, v) -> Printf.sprintf "add %d %d" k v)
              Gen.(
                oneof
                  [ map (fun k -> Find k) (int_bound 5);
                    map2 (fun k v -> Add (k, v)) (int_bound 5) small_nat ]))))
    (fun (cap, ops) ->
      let evicted = ref [] and model_evicted = ref [] in
      let lru =
        Int_lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) cap
      in
      let model = ref [] in                 (* most recent first *)
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Find k ->
              let found = List.assoc_opt k !model in
              Option.iter
                (fun v -> model := (k, v) :: List.remove_assoc k !model)
                found;
              Int_lru.find lru k = found
            | Add (k, v) ->
              if List.mem_assoc k !model then
                model := List.remove_assoc k !model
              else if List.length !model >= cap then begin
                let ((k_old, _) as oldest) = List.nth !model (cap - 1) in
                model_evicted := oldest :: !model_evicted;
                model := List.remove_assoc k_old !model
              end;
              model := (k, v) :: !model;
              Int_lru.add lru k v;
              true
          in
          agrees
          && Int_lru.length lru = List.length !model
          && !evicted = !model_evicted)
        ops)

(* Two programs of seed 14's 12,000-program corpus that share a
   [Program.hash]. *)
let colliding =
  ( p "r0 = sysctl_write(\"net/somaxconn\", 7)\nr1 = socket(3)\nr2 = creat(\"/tmp/kit0\")",
    p "r0 = open(\"/proc/uptime\")\nr1 = read(r0)\nr2 = msgsnd(2, \"n0\")" )

let test_caches_key_on_programs () =
  (* A cache filled by one program never answers for another whose hash
     collides with it: every lookup of the second program, made after
     the first filled the caches, equals a fresh runner's. As senders,
     the programs key the sender-state table; as receivers, the mask
     cache's masked baseline. *)
  let a, b = colliding in
  check_int "the programs share a hash" (Program.hash a) (Program.hash b);
  check_bool "the programs differ" false (Program.equal a b);
  let runner () = Runner.create (Env.create (K.Config.v5_13 ())) in
  let warm = runner () and fresh = runner () in
  let pid = warm.Runner.env.Env.receiver_pid in
  (* the solo accesses schedule search caches for the program *)
  let accesses r prog =
    ignore
      (Runner.schedule_classes r ~schedules:2 ~sender:prog ~receiver:prog
        : Runner.sched_class list);
    Runner.Access_lru.find r.Runner.access_cache (pid, (Program.hash prog, prog))
  in
  ignore (Runner.baseline_trace warm a : Ast.t);
  ignore (Runner.nondet_mask warm a : Ast.t);
  ignore (accesses warm a : (int * bool) array option);
  check_bool "baseline trace" true
    (Ast.equal (Runner.baseline_trace warm b) (Runner.baseline_trace fresh b));
  check_bool "nondet mask" true
    (Ast.equal (Runner.nondet_mask warm b) (Runner.nondet_mask fresh b));
  check_bool "solo accesses" true (accesses warm b = accesses fresh b);
  let ptype = p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  let outcome r ~sender ~receiver =
    outcome_view (Runner.execute r ~sender ~receiver)
  in
  let warm_a = outcome warm ~sender:a ~receiver:ptype in
  check_bool "the sender's state replays" true
    (outcome warm ~sender:a ~receiver:ptype = warm_a);
  check_bool "sender-state table" true
    (outcome warm ~sender:b ~receiver:ptype
    = outcome fresh ~sender:b ~receiver:ptype);
  let sender = p "r0 = socket(3)" in
  ignore (Runner.execute warm ~sender ~receiver:a : Runner.outcome);
  let ((_, _, raw, _, _) as got) = outcome warm ~sender ~receiver:b in
  check_bool "the case differs, so the masked baseline serves it" true
    (raw <> []);
  check_bool "masked baseline" true (got = outcome fresh ~sender ~receiver:b)

let test_no_divergence_skips_masking () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create ~reruns:3 env in
  let _ =
    Runner.execute runner ~sender:(p "r0 = getpid()")
      ~receiver:(p "r0 = getpid()")
  in
  check_int "only A and B executed" 2 (Runner.executions runner)

let test_nondet_mask_structure () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let mask =
    Runner.nondet_mask runner
      (p "r0 = clock_gettime()\nr1 = getpid()")
  in
  check_bool "some nodes nondet" true (mask.Ast.ndet > 0);
  match mask.Ast.children with
  | [ clock_call; getpid_call ] ->
    check_bool "clock marked" true (clock_call.Ast.ndet > 0);
    check_int "getpid fully det" 0 getpid_call.Ast.ndet
  | _ -> Alcotest.fail "shape"

let test_test_interference_primitive () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let interfered =
    Runner.test_interference runner ~sender:(p "r0 = socket(3)")
      ~receiver:(p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  check (Alcotest.list Alcotest.int) "indices" [ 1 ] interfered;
  let none =
    Runner.test_interference runner ~sender:(p "r0 = getpid()")
      ~receiver:(p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  check (Alcotest.list Alcotest.int) "benign sender" [] none

let test_sender_host_env () =
  let env =
    Env.create ~sender_host:true (K.Config.for_known_bug K.Bugs.KE_iouring_mount)
  in
  let runner = Runner.create env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = creat(\"/tmp/kit0\")")
      ~receiver:(p "r0 = io_uring_read(\"/tmp/kit0\")")
  in
  check_bool "host escape observed" true (outcome.Runner.masked_diffs <> [])

let test_outcome_deterministic () =
  let make () =
    let env = Env.create (K.Config.v5_13 ()) in
    let runner = Runner.create env in
    Runner.execute runner ~sender:(p "r0 = socket(3)")
      ~receiver:(p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  let a = make () in
  let b = make () in
  check_bool "identical traces across environments" true
    (Ast.equal a.Runner.trace_a b.Runner.trace_a
    && Ast.equal a.Runner.trace_b b.Runner.trace_b)

(* --- execute = the reference composition ---------------------------------

   [Runner.execute] decodes execution A against the receiver's baseline
   run. The reference composition is the one kitbench replays: run_pair
   decodes A in full, then baseline_trace -> diff_trees -> nondet_mask
   -> apply_mask on both traces -> diff_trees -> interfered_of_diffs.
   Over every case of a RAND campaign, two runners on twin environments
   must give structurally equal outcomes (det flags included) at equal
   execution counts, or fail the same way under an armed fault plane. *)

module Campaign = Kit_core.Campaign
module Cluster = Kit_gen.Cluster
module Testcase = Kit_gen.Testcase
module Nondet = Kit_trace.Nondet

let rand48 =
  { Campaign.default_options with
    Campaign.seed = 7; corpus_size = 48; strategy = Cluster.Rand 2000 }

let rand48_cases =
  lazy
    (let prepared = Campaign.prepare rand48 in
     let corpus = Campaign.prepared_corpus prepared in
     List.map
       (fun (tc : Testcase.t) ->
         (corpus.(tc.Testcase.sender), corpus.(tc.Testcase.receiver)))
       (Campaign.generate_prepared prepared).Cluster.reps)

let reference_execute r ~sender ~receiver =
  let trace_a = Runner.run_pair r ~base:r.Runner.env.Env.base0 sender receiver in
  let trace_b = Runner.baseline_trace r receiver in
  let raw_diffs = Compare.diff_trees trace_a trace_b in
  if raw_diffs = [] then
    { Runner.trace_a; trace_b; raw_diffs; masked_diffs = []; interfered = [] }
  else begin
    let mask = Runner.nondet_mask r receiver in
    let masked_diffs =
      Compare.diff_trees (Nondet.apply_mask mask trace_a)
        (Nondet.apply_mask mask trace_b)
    in
    { Runner.trace_a; trace_b; raw_diffs; masked_diffs;
      interfered = Compare.interfered_of_diffs masked_diffs }
  end

let check_execute_is_reference ?(baseline_cache = true) ?faults () =
  let runner () =
    let fault = Option.map K.Fault.of_schedule faults in
    Runner.create ~reruns:rand48.Campaign.reruns ~baseline_cache
      (Env.create ?fault rand48.Campaign.config)
  in
  let fast = runner () and reference = runner () in
  let attempt f =
    match f () with
    | o -> Ok (outcome_view o)
    | exception K.Fault.Kernel_panic info -> Error info.K.Fault.message
    | exception K.Fault.Fuel_exhausted -> Error "fuel exhausted"
  in
  let failed = ref 0 and diverged = ref 0 in
  List.iteri
    (fun i (sender, receiver) ->
      let got = attempt (fun () -> Runner.execute fast ~sender ~receiver) in
      let want =
        attempt (fun () -> reference_execute reference ~sender ~receiver)
      in
      if not (got = want) then Alcotest.failf "case %d: outcomes differ" i;
      check_int
        (Printf.sprintf "case %d: executions" i)
        (Runner.executions reference) (Runner.executions fast);
      match got with
      | Error _ -> incr failed
      | Ok (_, _, raw, _, _) -> if raw <> [] then incr diverged)
    (Lazy.force rand48_cases);
  check_bool "some cases diverge" true (!diverged > 0);
  !failed

let test_execute_is_reference_composition () =
  check_int "nothing fails with no fault armed" 0
    (check_execute_is_reference ());
  check_int "nothing fails, baseline cache off" 0
    (check_execute_is_reference ~baseline_cache:false ());
  let faults =
    match
      K.Fault.parse_schedule
        "panic:socket:2,hang:read:1,hang:token_stat:3,panic:sethostname:2"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  check_bool "the armed faults fire, the same way on both sides" true
    (check_execute_is_reference ~faults () > 0)

(* --- the sender-state table replays real sender runs ------------------

   Every execution A and Algorithm 2 re-test of two campaigns — RAND
   2000 over 48 programs, and DF-IA at seed 7 over 320 — on a runner
   whose sender-state table replays each sender's recorded heap delta
   and fuel, against a runner created with [~baseline_cache:false],
   which runs every sender. Both see the same cases in campaign order,
   each re-test right after the execution A that reported, twice over,
   so the second pass finds the table warm. Outcomes must agree, failures
   alike: with the fault schedule armed, and with a fuel limit that
   hangs some cases. While a fault is armed, "exec.delta_hits" does not
   move. *)

module Filter = Kit_detect.Filter
module Diagnose = Kit_report.Diagnose

let campaign_cases options =
  let prepared = Campaign.prepare options in
  let corpus = Campaign.prepared_corpus prepared in
  ( options,
    List.map
      (fun (tc : Testcase.t) ->
        (tc, corpus.(tc.Testcase.sender), corpus.(tc.Testcase.receiver)))
      (Campaign.generate_prepared prepared).Cluster.reps )

let delta_campaigns =
  lazy
    [ campaign_cases rand48;
      campaign_cases
        { Campaign.default_options with Campaign.seed = 7; corpus_size = 320 } ]

(* Failures (panics and hangs), hung cases and replayed senders, over
   both campaigns. *)
let check_senders_replayed ?faults ?fuel () =
  let failed = ref 0 and hung = ref 0 and hits = ref 0 in
  List.iter
    (fun ((options : Campaign.options), cases) ->
      let runner ~baseline_cache =
        let fault = Option.map K.Fault.of_schedule faults in
        let env = Env.create ?fault options.Campaign.config in
        K.Fault.set_fuel_limit (Env.fault env) fuel;
        let obs = Kit_obs.Obs.create () in
        ( Runner.create ~reruns:options.Campaign.reruns ~baseline_cache ~obs env,
          Metrics.counter obs.Kit_obs.Obs.metrics "exec.delta_hits" )
      in
      let (fast, delta_hits), (reference, _) =
        (runner ~baseline_cache:true, runner ~baseline_cache:false)
      in
      let attempt r ~sender ~receiver =
        match Runner.execute r ~sender ~receiver with
        | o -> Ok o
        | exception K.Fault.Kernel_panic info -> Error info.K.Fault.message
        | exception K.Fault.Fuel_exhausted -> Error "fuel exhausted"
      in
      (* One execution on both runners: the reference's outcome. *)
      let both ~what ~sender ~receiver =
        let armed = K.Fault.schedule (Env.fault fast.Runner.env) <> [] in
        let hits0 = Metrics.counter_value delta_hits in
        let got = attempt fast ~sender ~receiver in
        let want = attempt reference ~sender ~receiver in
        if Result.map outcome_view got <> Result.map outcome_view want then
          Alcotest.failf "%s: outcomes differ" what;
        if armed && Metrics.counter_value delta_hits <> hits0 then
          Alcotest.failf "%s: a sender replayed while a fault was armed" what;
        (match want with
        | Ok _ -> ()
        | Error e ->
          incr failed;
          if e = "fuel exhausted" then incr hung);
        want
      in
      for pass = 1 to 2 do
        List.iteri
          (fun i ((tc : Testcase.t), sender, receiver) ->
            let what = Printf.sprintf "pass %d, case %d" pass i in
            match both ~what ~sender ~receiver with
            | Error _ -> ()
            | Ok outcome -> (
              let spec = options.Campaign.spec in
              match
                Filter.classify spec ~testcase:tc ~sender ~receiver outcome
                  (Filter.funnel_create ())
              with
              | Filter.Reported r ->
                let test ~sender ~receiver =
                  match both ~what:(what ^ ", re-test") ~sender ~receiver with
                  | Ok o ->
                    Filter.protected_interfered spec receiver o.Runner.interfered
                  | Error _ -> []
                in
                ignore
                  (Diagnose.culprits ~test ~sender ~receiver
                     ~interfered:r.Kit_detect.Report.interfered
                    : Diagnose.pair list)
              | Filter.No_divergence | Filter.Filtered_nondet
              | Filter.Filtered_resource ->
                ()))
          cases
      done;
      hits := !hits + Metrics.counter_value delta_hits)
    (Lazy.force delta_campaigns);
  (!failed, !hung, !hits)

(* The most syscalls one execution of the two campaigns makes: a
   sender's and its receiver's. *)
let longest_execution () =
  List.fold_left
    (fun acc (_, cases) ->
      List.fold_left
        (fun acc (_, sender, receiver) ->
          max acc (Program.length sender + Program.length receiver))
        acc cases)
    0 (Lazy.force delta_campaigns)

(* Fuel is drawn below the longest execution (11 syscalls), so some
   case always runs out of it and [hung > 0] can hold; a fuel of 11 or
   more hangs nothing. *)
let prop_senders_replayed =
  QCheck.Test.make ~name:"the sender-state table replays real sender runs"
    ~count:2
    QCheck.(pair (int_range 0 1000) (int_range 3 10))
    (fun (seed, fuel) ->
      if longest_execution () <= fuel then
        QCheck.Test.fail_reportf
          "no execution makes more than %d syscalls: fuel %d hangs nothing"
          (longest_execution ()) fuel;
      let faults =
        "panic:socket:2,hang:read:1,hang:token_stat:3,panic:sethostname:2"
      in
      let faults =
        match K.Fault.parse_schedule faults with
        | Ok s ->
          s
          @ List.filter
              (fun (a : K.Fault.arming) ->
                match a.K.Fault.fault with
                | K.Fault.Panic_on _ | K.Fault.Hang_on _ -> true
                | K.Fault.Boot_failure | K.Fault.Snapshot_corruption -> false)
              (K.Fault.schedule_of_seed ~seed ~intensity:4)
        | Error e -> Alcotest.fail e
      in
      let failed, _, hits = check_senders_replayed () in
      let failed', _, _ = check_senders_replayed ~faults () in
      let _, hung, hits' = check_senders_replayed ~fuel () in
      failed = 0 && hits > 0 && failed' > 0 && hung > 0 && hits' > 0)

let suite =
  [
    Alcotest.test_case "env: reset restores state" `Quick
      test_env_reset_restores_state;
    Alcotest.test_case "env: clock base applied" `Quick test_env_base_applied;
    Alcotest.test_case "runner: interference detected" `Quick
      test_interference_detected;
    Alcotest.test_case "runner: silent on fixed kernel" `Quick
      test_no_interference_on_fixed_kernel;
    Alcotest.test_case "runner: timing divergence masked" `Quick
      test_timing_masked;
    Alcotest.test_case "runner: leak survives next to timing" `Quick
      test_timing_and_leak_coexist;
    Alcotest.test_case "runner: mask cached per receiver" `Quick
      test_mask_cached_per_receiver;
    Alcotest.test_case "runner: baseline cached per receiver" `Quick
      test_baseline_cached_per_receiver;
    QCheck_alcotest.to_alcotest prop_lru_matches_model;
    Alcotest.test_case "runner: caches key on programs, not hashes" `Quick
      test_caches_key_on_programs;
    Alcotest.test_case "runner: no divergence skips masking" `Quick
      test_no_divergence_skips_masking;
    Alcotest.test_case "runner: mask structure" `Quick test_nondet_mask_structure;
    Alcotest.test_case "runner: TestFuncI primitive" `Quick
      test_test_interference_primitive;
    Alcotest.test_case "runner: host sender environment (bug E)" `Quick
      test_sender_host_env;
    Alcotest.test_case "runner: outcome deterministic" `Quick
      test_outcome_deterministic;
    Alcotest.test_case "runner: execute = the reference composition" `Quick
      test_execute_is_reference_composition;
    QCheck_alcotest.to_alcotest prop_senders_replayed;
  ]
