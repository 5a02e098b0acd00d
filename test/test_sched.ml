(* The deterministic interleaving scheduler: sequential-schedule
   equivalence with the plain runner, schedule determinism across
   domains and processes, POR soundness, the end-to-end guarantee that
   schedule search finds every seeded race-window bug no sequential run
   can expose, agreement with reference models of the driver, class
   keys and search, the POR contract on campaign representatives, and
   the search's pinned summary. *)

module K = Kit_kernel
module Sched = Kit_kernel.Sched
module Bugs = Kit_kernel.Bugs
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang
module Corpus = Kit_abi.Corpus
module Consts = Kit_abi.Consts
module Spec = Kit_spec.Spec
module Testcase = Kit_gen.Testcase
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Ast = Kit_trace.Ast
module Compare = Kit_trace.Compare
module Filter = Kit_detect.Filter
module Report = Kit_detect.Report
module Campaign = Kit_core.Campaign
module Oracle = Kit_core.Oracle
module Pool = Kit_serve.Pool
module Proto = Kit_serve.Proto
module Fault = Kit_kernel.Fault
module Interp = Kit_kernel.Interp
module Decode = Kit_trace.Decode
module Nondet = Kit_trace.Nondet
module Metrics = Kit_obs.Metrics
module Cluster = Kit_gen.Cluster

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let p = Syzlang.parse

(* A kernel carrying only the seeded race-window bugs: the cleanest
   demonstration that they are sequentially invisible — every
   sequential execution is silent, only schedule search speaks. *)
let race_only_config () =
  K.Config.make ~bugs:(Bugs.of_list Bugs.race_bugs) "5.13-rw"

(* Hand-built reproducer pairs, one per seeded race-window bug. *)
let rw1_pair =
  ( p "r0 = socket(1)\nalloc_protomem(r0, 256)",
    p "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" )

let rw2_pair =
  ( p "r0 = socket(1)\nr1 = get_cookie(r0)",
    p "r0 = socket(1)\nr1 = get_cookie(r0)" )

let rw3_pair =
  ( p "r0 = open(\"/proc/uptime\")\nr1 = read(r0)",
    p "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" )

let rw_pairs =
  [ (Bugs.RW1_protomem_inflight, rw1_pair);
    (Bugs.RW2_cookie_window, rw2_pair);
    (Bugs.RW3_seqfile_busy, rw3_pair) ]

let search_budget = 64

(* --- the decision function ------------------------------------------------ *)

let test_mix_pure () =
  for seed = 0 to 8 do
    for step = 0 to 32 do
      let a = Sched.mix ~seed ~step in
      check_bool "non-negative" true (a >= 0);
      check_int "stable across calls" a (Sched.mix ~seed ~step)
    done
  done

let test_choose_sequential () =
  check_int "lowest runnable" 0
    (Sched.choose Sched.Sequential ~step:5 ~runnable:[ 0; 1 ]);
  check_int "singleton" 1 (Sched.choose Sched.Sequential ~step:0 ~runnable:[ 1 ]);
  (* seeded choice is a member of the runnable set *)
  for seed = 0 to 5 do
    for step = 0 to 10 do
      let c = Sched.choose (Sched.Seeded seed) ~step ~runnable:[ 0; 1 ] in
      check_bool "member" true (c = 0 || c = 1)
    done
  done

let test_simulate_shape () =
  let counts = [| 3; 2 |] in
  check
    Alcotest.(list (pair int int))
    "sequential merge is sender-then-receiver"
    [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1) ]
    (Sched.simulate Sched.Sequential counts);
  (* every seeded merge is a per-task-order-preserving permutation *)
  for seed = 0 to 15 do
    let merged = Sched.simulate (Sched.Seeded seed) counts in
    check_int "length" 5 (List.length merged);
    let last = [| -1; -1 |] in
    List.iter
      (fun (task, i) ->
        check_bool "task id valid" true (task = 0 || task = 1);
        check_bool "per-task order preserved" true (i = last.(task) + 1);
        last.(task) <- i)
      merged;
    check
      Alcotest.(list (pair int int))
      "deterministic" merged
      (Sched.simulate (Sched.Seeded seed) counts)
  done

(* --- sequential schedule ≡ plain runner ----------------------------------- *)

let test_sequential_equals_run_pair () =
  List.iter
    (fun cfg ->
      let env = Env.create cfg in
      let runner = Runner.create env in
      List.iter
        (fun (_, (sender, receiver)) ->
          let base = env.Env.base0 in
          let plain = Runner.run_pair runner ~base sender receiver in
          let inter =
            Runner.run_interleaved runner ~schedule:Sched.Sequential ~base
              sender receiver
          in
          check_bool "byte-identical trace" true (Ast.equal plain inter))
        rw_pairs)
    [ K.Config.v5_13 (); K.Config.v5_13_rw (); race_only_config () ]

(* --- sequentially invisible, concurrently exposed ------------------------- *)

let test_race_bugs_sequentially_invisible () =
  let runner = Runner.create (Env.create (race_only_config ())) in
  List.iter
    (fun (bug, (sender, receiver)) ->
      let outcome = Runner.execute runner ~sender ~receiver in
      check_int
        (Printf.sprintf "%s silent sequentially" (Bugs.to_string bug))
        0
        (List.length outcome.Runner.masked_diffs))
    rw_pairs

let classify testcase ~sender ~receiver c =
  Filter.classify_concurrent Spec.default ~testcase ~sender ~receiver c

let test_search_finds_each_race_bug () =
  let runner = Runner.create (Env.create (race_only_config ())) in
  List.iter
    (fun (bug, (sender, receiver)) ->
      let outcome = Runner.execute runner ~sender ~receiver in
      let search =
        Runner.search_schedules runner ~schedules:search_budget ~sender
          ~receiver outcome
      in
      let name = Bugs.to_string bug in
      check_int (name ^ ": candidates") search_budget search.Runner.sr_schedules;
      check_int (name ^ ": executed + pruned = candidates") search_budget
        (search.Runner.sr_executed + search.Runner.sr_pruned);
      check_bool (name ^ ": executed bounded by classes") true
        (search.Runner.sr_executed <= search.Runner.sr_classes);
      check_bool (name ^ ": divergence found") true
        (search.Runner.sr_findings <> []);
      let tc = { Testcase.sender = 0; receiver = 1; flow = None } in
      let reports =
        List.filter_map
          (classify tc ~sender ~receiver)
          search.Runner.sr_findings
      in
      check_bool (name ^ ": report survives the resource filter") true
        (reports <> []);
      check_bool (name ^ ": attributed to the seeded bug") true
        (List.exists
           (fun r ->
             match Oracle.attribute_concurrent r with
             | Oracle.Bug b -> Bugs.equal b bug
             | Oracle.False_positive _ | Oracle.Under_investigation -> false)
           reports))
    rw_pairs

let test_findings_deduplicated () =
  let runner = Runner.create (Env.create (race_only_config ())) in
  List.iter
    (fun (_, (sender, receiver)) ->
      let outcome = Runner.execute runner ~sender ~receiver in
      let search =
        Runner.search_schedules runner ~schedules:search_budget ~sender
          ~receiver outcome
      in
      let fps =
        List.map (fun c -> c.Runner.cc_fingerprint) search.Runner.sr_findings
      in
      check_int "fingerprints unique" (List.length fps)
        (List.length (List.sort_uniq compare fps));
      List.iter
        (fun c ->
          check_bool "non-negative fingerprint" true (c.Runner.cc_fingerprint >= 0);
          check_bool "seeds ascending" true
            (c.Runner.cc_seeds = List.sort compare c.Runner.cc_seeds);
          check_int "fingerprint matches diffs" c.Runner.cc_fingerprint
            (Compare.fingerprint_diffs c.Runner.cc_diffs))
        search.Runner.sr_findings)
    rw_pairs

(* --- qcheck: random programs from the corpus generator -------------------- *)

let gen_program =
  QCheck.Gen.(
    map
      (fun (seed, idx) ->
        let corpus = Corpus.generate ~seed ~size:8 in
        List.nth corpus (idx mod List.length corpus))
      (pair small_nat small_nat))

let arbitrary_program = QCheck.make ~print:Syzlang.print gen_program
let arbitrary_pair = QCheck.pair arbitrary_program arbitrary_program

let rw_exec =
  lazy
    (let env = Env.create (K.Config.v5_13_rw ()) in
     (env, Runner.create env))

let prop_sequential_schedule_equals_run_pair =
  QCheck.Test.make
    ~name:"interleaved Sequential schedule = run_pair, byte-identical"
    ~count:50 arbitrary_pair (fun (sender, receiver) ->
      let env, runner = Lazy.force rw_exec in
      let base = env.Env.base0 in
      let plain = Runner.run_pair runner ~base sender receiver in
      let inter =
        Runner.run_interleaved runner ~schedule:Sched.Sequential ~base sender
          receiver
      in
      Ast.equal plain inter)

let search_fp (s : Runner.search) =
  ( s.Runner.sr_schedules, s.Runner.sr_classes, s.Runner.sr_executed,
    s.Runner.sr_pruned, s.Runner.sr_skipped,
    List.map
      (fun c -> (c.Runner.cc_seeds, c.Runner.cc_fingerprint, c.Runner.cc_interfered))
      s.Runner.sr_findings )

let prop_search_deterministic_across_runners =
  (* Two independent runner instances — fresh caches, fresh kernels —
     agree decision-for-decision: seeds are portable identifiers. *)
  QCheck.Test.make ~name:"schedule search deterministic across runners"
    ~count:20 arbitrary_pair (fun (sender, receiver) ->
      let search_with () =
        let runner = Runner.create (Env.create (K.Config.v5_13_rw ())) in
        let outcome = Runner.execute runner ~sender ~receiver in
        Runner.search_schedules runner ~schedules:12 ~sender ~receiver outcome
      in
      search_fp (search_with ()) = search_fp (search_with ()))

let test_search_memo () =
  (* A repeated search of a pair executes nothing and returns the first
     search. Another sequential fingerprint searches again, and finds
     what a fresh runner finds; with the baseline cache off nothing is
     memoized. *)
  let sender, receiver = rw1_pair in
  let runner_of ?baseline_cache () =
    Runner.create ?baseline_cache ~obs:(Kit_obs.Obs.create ())
      (Env.create (K.Config.v5_13_rw ()))
  in
  let search runner seq =
    let e0 = Runner.executions runner in
    let s =
      Runner.search_schedules runner ~schedules:search_budget ~sender ~receiver
        seq
    in
    (s, Runner.executions runner - e0)
  in
  let stats = Alcotest.(triple int int int) in
  let runner = runner_of () in
  let seq = Runner.execute runner ~sender ~receiver in
  let first, ran = search runner seq in
  let again, ran' = search runner seq in
  check_bool "the first search executes" true (ran > 0);
  check_int "a repeat executes nothing" 0 ran';
  check_bool "a repeat returns the first search" true (again == first);
  check stats "one miss, one hit" (1, 1, 1) (Runner.search_cache_stats runner);
  check_bool "the pair diverges sequentially" true
    (seq.Runner.masked_diffs <> []);
  let other = { seq with Runner.masked_diffs = [] } in
  let s, ran = search runner other in
  check_bool "another fingerprint searches again" true (ran > 0);
  let fresh = runner_of () in
  ignore (Runner.execute fresh ~sender ~receiver : Runner.outcome);
  check_bool "and finds what a fresh runner finds" true
    (search_fp s = search_fp (fst (search fresh other)));
  let off = runner_of ~baseline_cache:false () in
  let seq = Runner.execute off ~sender ~receiver in
  let a, _ = search off seq in
  let b, ran = search off seq in
  check_bool "memo off: a repeat executes" true (ran > 0);
  check_bool "memo off: the same search" true (search_fp a = search_fp b);
  check stats "memo off: nothing counted" (0, 0, 0)
    (Runner.search_cache_stats off)

let prop_por_soundness =
  (* On these 8-program corpora, every member of a POR class executes
     byte-identically to the class representative, and members of the
     sequential class reproduce the plain sequential run. That is more
     than POR promises: on campaign representatives raw traces of class
     members can differ in virtual-clock values (35 of the 426 seed-7
     race-sched representatives at 128 seeds), which the nondet mask
     removes. The contract is masked-outcome equality — see the two
     "POR contract" tests below. *)
  QCheck.Test.make ~name:"POR pruning is sound: class members coincide"
    ~count:25 arbitrary_pair (fun (sender, receiver) ->
      let env, runner = Lazy.force rw_exec in
      let base = env.Env.base0 in
      let classes =
        Runner.schedule_classes runner ~schedules:10 ~sender ~receiver
      in
      let trace_of seed =
        Runner.run_interleaved runner ~schedule:(Sched.Seeded seed) ~base
          sender receiver
      in
      let sequential = Runner.run_pair runner ~base sender receiver in
      List.for_all
        (fun cls ->
          match cls.Runner.cls_seeds with
          | [] -> false
          | rep :: rest ->
            let rep_trace = trace_of rep in
            List.for_all (fun s -> Ast.equal rep_trace (trace_of s)) rest
            && (not cls.Runner.cls_sequential
               || Ast.equal rep_trace sequential))
        classes)

(* --- campaign integration ------------------------------------------------- *)

let fp x = Digest.string (Marshal.to_string x [ Marshal.No_sharing ])

let funnel_fp (f : Filter.funnel) =
  ( f.Filter.executed, f.Filter.initial, f.Filter.after_nondet,
    f.Filter.after_resource )

let concurrent_fp (c : Campaign.t) =
  List.map
    (fun (r : Report.t) ->
      ( fp r.Report.testcase, r.Report.interfered, r.Report.origin,
        fp r.Report.diffs ))
    c.Campaign.concurrent

let sched_fp (s : Campaign.sched_stats) =
  ( s.Campaign.sched_candidates, s.Campaign.sched_classes,
    s.Campaign.sched_executed, s.Campaign.sched_pruned,
    s.Campaign.sched_skipped )

let test_campaign_sequential_results_unchanged () =
  (* Turning schedule search on must not perturb the sequential
     pipeline: reports, funnel and quarantine are byte-identical with
     and without it, for multiple seeds. *)
  List.iter
    (fun seed ->
      let base_opts =
        { Campaign.default_options with
          Campaign.corpus_size = 48;
          seed;
          diagnose = false }
      in
      let plain = Campaign.run base_opts in
      let searched =
        Campaign.run { base_opts with Campaign.schedules = 6 }
      in
      check Alcotest.string "reports identical" (fp plain.Campaign.reports)
        (fp searched.Campaign.reports);
      check Alcotest.string "funnel identical"
        (fp (funnel_fp plain.Campaign.funnel))
        (fp (funnel_fp searched.Campaign.funnel));
      check Alcotest.string "quarantine identical"
        (fp plain.Campaign.quarantined)
        (fp searched.Campaign.quarantined);
      check
        Alcotest.(list int)
        "sequential-only campaign has zero sched stats"
        [ 0; 0; 0; 0; 0 ]
        (let a, b, c, d, e = sched_fp plain.Campaign.sched in
         [ a; b; c; d; e ]);
      check_int "no concurrent reports without search" 0
        (List.length plain.Campaign.concurrent);
      check_bool "searched campaign examined schedules" true
        ((fun (a, _, _, _, _) -> a) (sched_fp searched.Campaign.sched) > 0))
    [ 7; 11 ]

let rw_campaign_options =
  { Campaign.default_options with
    Campaign.config = K.Config.v5_13_rw ();
    corpus_size = 48;
    seed = 7;
    diagnose = false;
    schedules = 8 }

let rw_campaign = lazy (Campaign.run rw_campaign_options)

let test_campaign_deterministic_across_domains () =
  (* The same campaign under --domains 1..4: concurrent findings and
     schedule-search totals are structurally identical — seeds name the
     same interleavings wherever the case executes. *)
  let reference = Lazy.force rw_campaign in
  List.iter
    (fun domains ->
      let c =
        Campaign.run { rw_campaign_options with Campaign.domains }
      in
      check Alcotest.string
        (Printf.sprintf "concurrent reports equal at domains=%d" domains)
        (fp (concurrent_fp reference))
        (fp (concurrent_fp c));
      check Alcotest.string
        (Printf.sprintf "sched stats equal at domains=%d" domains)
        (fp (sched_fp reference.Campaign.sched))
        (fp (sched_fp c.Campaign.sched)))
    [ 2; 3; 4 ]

let test_campaign_deterministic_across_procs () =
  (* The pool path (separate worker processes) folds the same
     schedule-search results as the in-process campaign. *)
  let reference = Lazy.force rw_campaign in
  let results = ref [] in
  ignore
    (Pool.execute
       { Pool.default_config with Pool.procs = 2 }
       rw_campaign_options reference.Campaign.corpus
       (List.mapi (fun i tc -> (i, tc))
          reference.Campaign.generation.Cluster.reps)
       ~on_done:(fun _ r _ -> results := r :: !results)
      : Pool.stats);
  let concurrent =
    List.concat_map (fun r -> r.Campaign.cr_concurrent) !results
  in
  let sched = Campaign.sched_create () in
  List.iter (fun r -> Campaign.add_sched sched r.Campaign.cr_sched) !results;
  let fps_of list =
    List.sort compare
      (List.map
         (fun (r : Report.t) -> (fp r.Report.testcase, r.Report.origin))
         list)
  in
  check Alcotest.string "concurrent findings equal under procs=2"
    (fp (fps_of reference.Campaign.concurrent))
    (fp (fps_of concurrent));
  let a, b, c, d, e = sched_fp sched in
  let a', b', c', d', e' = sched_fp reference.Campaign.sched in
  check
    Alcotest.(list int)
    "sched totals equal under procs=2"
    [ a'; b'; c'; d'; e' ] [ a; b; c; d; e ]

let test_campaign_finds_all_race_bugs () =
  (* The acceptance gate, in-process: a campaign over the curated
     reproducer pairs with a fixed schedule budget witnesses every
     seeded race-window bug, with a non-trivial POR prune ratio. *)
  let opts =
    { Campaign.default_options with
      Campaign.config = K.Config.v5_13_rw ();
      corpus_size = 96;
      seed = 3;
      diagnose = false;
      schedules = 128 }
  in
  let c = Campaign.run opts in
  let found = Oracle.race_bugs_found c.Campaign.concurrent in
  List.iter
    (fun bug ->
      check_bool
        (Printf.sprintf "campaign witnesses %s" (Bugs.to_string bug))
        true
        (List.exists (Bugs.equal bug) found))
    Bugs.race_bugs;
  check_bool "POR pruned schedules" true
    (c.Campaign.sched.Campaign.sched_pruned > 0);
  check_bool "search ran on completed cases" true
    (c.Campaign.sched.Campaign.sched_candidates > 0)

(* --- reference models ------------------------------------------------------ *)

(* Straightforward reference implementations of the scheduler, class
   keys and search: a driver that suspends the task at every yield
   point and decides afterwards, class keys as lists built from
   [simulate], and a search that decodes, diffs and masks every
   representative's trace. The optimised code must agree with them
   exactly. *)
module Model = struct
  open Effect
  open Effect.Deep

  type _ Effect.t += Yield : unit Effect.t

  let choose schedule ~step ~runnable =
    match runnable with
    | [] -> invalid_arg "Model.choose: no runnable task"
    | [ i ] -> i
    | first :: _ -> (
      match schedule with
      | Sched.Sequential -> first
      | Sched.Seeded seed ->
        let m = List.length runnable in
        List.nth runnable (Sched.mix ~seed ~step mod m))

  type task =
    | Not_started of (unit -> unit)
    | Ready of (unit, unit) continuation
    | Done

  let run ?(schedule = Sched.Sequential) (ctx : K.Ctx.t) thunks =
    let tasks = Array.of_list (List.map (fun f -> Not_started f) thunks) in
    let n = Array.length tasks in
    let current = ref 0 in
    let steps = ref 0 in
    let runnable () =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        match tasks.(i) with Done -> () | _ -> acc := i :: !acc
      done;
      !acc
    in
    let handler =
      {
        retc = (fun () -> tasks.(!current) <- Done);
        exnc =
          (fun e ->
            tasks.(!current) <- Done;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              Some (fun (k : (a, unit) continuation) -> tasks.(!current) <- Ready k)
            | _ -> None);
      }
    in
    let abort e =
      Array.iteri
        (fun i st ->
          match st with
          | Ready k -> (
            current := i;
            try discontinue k Sched.Aborted with Sched.Aborted -> ())
          | Not_started _ -> tasks.(i) <- Done
          | Done -> ())
        tasks;
      raise e
    in
    let hook () = perform Yield in
    let saved = ctx.K.Ctx.yield in
    ctx.K.Ctx.yield <- Some hook;
    Fun.protect
      ~finally:(fun () -> ctx.K.Ctx.yield <- saved)
      (fun () ->
        let rec loop () =
          match runnable () with
          | [] -> ()
          | rs ->
            let i = choose schedule ~step:!steps ~runnable:rs in
            incr steps;
            current := i;
            (match tasks.(i) with
            | Not_started f -> (
              try match_with f () handler with e -> abort e)
            | Ready k -> ( try continue k () with e -> abort e)
            | Done -> assert false);
            loop ()
        in
        loop ());
    !steps

  let simulate schedule counts =
    let n = Array.length counts in
    let picks = Array.make n 0 in
    let steps = ref 0 in
    let order = ref [] in
    let runnable () =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if picks.(i) <= counts.(i) then acc := i :: !acc
      done;
      !acc
    in
    let rec loop () =
      match runnable () with
      | [] -> ()
      | rs ->
        let i = choose schedule ~step:!steps ~runnable:rs in
        incr steps;
        if picks.(i) > 0 then order := (i, picks.(i) - 1) :: !order;
        picks.(i) <- picks.(i) + 1;
        loop ()
    in
    loop ();
    List.rev !order

  let schedule_classes (t : Runner.t) ~schedules ~sender ~receiver =
    let sa = Runner.solo_accesses t ~pid:t.Runner.env.Env.sender_pid sender in
    let ra =
      Runner.solo_accesses t ~pid:t.Runner.env.Env.receiver_pid receiver
    in
    let conflict = Hashtbl.create 16 in
    let mark tbl (addr, w) =
      let r, wr =
        Option.value ~default:(false, false) (Hashtbl.find_opt tbl addr)
      in
      Hashtbl.replace tbl addr (r || not w, wr || w)
    in
    let sides = Hashtbl.create 16 and rsides = Hashtbl.create 16 in
    Array.iter (mark sides) sa;
    Array.iter (mark rsides) ra;
    Hashtbl.iter
      (fun addr (sr, sw) ->
        match Hashtbl.find_opt rsides addr with
        | Some (rr, rw) when (sw && (rr || rw)) || (rw && (sr || sw)) ->
          Hashtbl.replace conflict addr ()
        | _ -> ())
      sides;
    let counts = [| Array.length sa; Array.length ra |] in
    let key_of schedule =
      List.filter_map
        (fun (task, i) ->
          let addr, w = if task = 0 then sa.(i) else ra.(i) in
          if Hashtbl.mem conflict addr then
            Some ((addr * 4) + (task * 2) + Bool.to_int w)
          else None)
        (simulate schedule counts)
    in
    let seq_key = key_of Sched.Sequential in
    let classes = Hashtbl.create 16 in
    let order = ref [] in
    for s = 0 to schedules - 1 do
      let k = key_of (Sched.Seeded s) in
      match Hashtbl.find_opt classes k with
      | Some seeds -> Hashtbl.replace classes k (s :: seeds)
      | None ->
        Hashtbl.replace classes k [ s ];
        order := k :: !order
    done;
    List.rev !order
    |> List.map (fun k ->
           { Runner.cls_seeds = List.rev (Hashtbl.find classes k);
             cls_sequential = k = seq_key })

  let run_interleaved (t : Runner.t) ~schedule ~base sender receiver =
    let env = t.Runner.env in
    Env.reset env ~base;
    Metrics.inc t.Runner.c_execs;
    let k = env.Env.kernel in
    let results = ref [] in
    let tasks =
      [ (fun () ->
          let _ : Interp.result list =
            Interp.run k ~pid:env.Env.sender_pid sender
          in
          ());
        (fun () -> results := Interp.run k ~pid:env.Env.receiver_pid receiver)
      ]
    in
    let _decisions : int = run ~schedule k.K.State.ctx tasks in
    Decode.decode_trace !results

  let search_schedules (t : Runner.t) ~schedules ~sender ~receiver
      (seq : Runner.outcome) =
    if schedules <= 1 then Runner.empty_search
    else
      match schedule_classes t ~schedules ~sender ~receiver with
      | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) ->
        { Runner.empty_search with Runner.sr_schedules = schedules;
          sr_skipped = 1 }
      | classes ->
        let seq_fp = Compare.fingerprint_diffs seq.Runner.masked_diffs in
        let executed = ref 0 and skipped = ref 0 in
        let findings = ref [] in
        List.iter
          (fun (cls : Runner.sched_class) ->
            if not cls.Runner.cls_sequential then begin
              incr executed;
              match
                run_interleaved t
                  ~schedule:(Sched.Seeded (List.hd cls.Runner.cls_seeds))
                  ~base:t.Runner.env.Env.base0 sender receiver
              with
              | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) ->
                incr skipped
              | trace_i ->
                let raw = Compare.diff_trees trace_i seq.Runner.trace_b in
                if raw <> [] then begin
                  let mask = Runner.nondet_mask t receiver in
                  let masked_i = Nondet.apply_mask mask trace_i in
                  let masked_b = Nondet.apply_mask mask seq.Runner.trace_b in
                  let diffs = Compare.diff_trees masked_i masked_b in
                  if diffs <> [] then begin
                    let fp = Compare.fingerprint_diffs diffs in
                    if fp <> seq_fp then
                      match List.assoc_opt fp !findings with
                      | Some c ->
                        findings :=
                          ( fp,
                            { c with
                              Runner.cc_seeds =
                                c.Runner.cc_seeds @ cls.Runner.cls_seeds } )
                          :: List.remove_assoc fp !findings
                      | None ->
                        findings :=
                          ( fp,
                            { Runner.cc_seeds = cls.Runner.cls_seeds;
                              cc_fingerprint = fp; cc_diffs = diffs;
                              cc_raw_diffs = raw;
                              cc_interfered = Compare.interfered_of_diffs diffs } )
                          :: !findings
                  end
                end
            end)
          classes;
        let sr_findings =
          List.rev_map
            (fun (_, c) ->
              { c with
                Runner.cc_seeds = List.sort_uniq Int.compare c.Runner.cc_seeds })
            !findings
        in
        { Runner.sr_schedules = schedules;
          sr_classes = List.length classes;
          sr_executed = !executed;
          sr_pruned = schedules - !executed;
          sr_skipped = !skipped;
          sr_findings }
end

(* One interleaved execution through [run] (the driver or the model),
   from a fresh snapshot: its decision count and receiver trace, or the
   way it crashed. Either way the ctx stack must be empty afterwards —
   the abort path unwinds every suspended task. *)
type driven = Finished of int * Ast.t | Panicked of Kit_abi.Sysno.t | Hung

let drive run (env : Env.t) ~schedule sender receiver =
  Env.reset env ~base:env.Env.base0;
  let k = env.Env.kernel in
  let results = ref [] in
  let tasks =
    [ (fun () ->
        let _ : Interp.result list =
          Interp.run k ~pid:env.Env.sender_pid sender
        in
        ());
      (fun () -> results := Interp.run k ~pid:env.Env.receiver_pid receiver)
    ]
  in
  let driven =
    match run ~schedule k.K.State.ctx tasks with
    | decisions -> Finished (decisions, Decode.decode_trace !results)
    | exception Fault.Kernel_panic info -> Panicked info.Fault.panic_sysno
    | exception Fault.Fuel_exhausted -> Hung
  in
  (driven, k.K.State.ctx.K.Ctx.stack = [] && k.K.State.ctx.K.Ctx.yield = None)

let same_driven a b =
  match a, b with
  | Finished (n, t), Finished (n', t') -> n = n' && Ast.equal t t'
  | Panicked s, Panicked s' -> Kit_abi.Sysno.equal s s'
  | Hung, Hung -> true
  | (Finished _ | Panicked _ | Hung), _ -> false

(* Faults armed on the env a driver case runs in: none, a permanent
   panic or hang on the syscall of one of the pair's calls, or a small
   fuel budget that runs out part-way through the interleaving. *)
type arming = No_fault | Panic_at of int | Hang_at of int | Fuel of int

let arming_env sender receiver = function
  | No_fault -> Some (Env.create (K.Config.v5_13_rw ()))
  | Fuel n ->
    let fault = Fault.of_schedule [] in
    Fault.set_fuel_limit fault (Some n);
    Some (Env.create ~fault (K.Config.v5_13_rw ()))
  | (Panic_at i | Hang_at i) as a -> (
    let calls = Program.calls sender @ Program.calls receiver in
    match calls with
    | [] -> None
    | _ ->
      let sysno = (List.nth calls (i mod List.length calls)).Program.sysno in
      let fault =
        match a with
        | Panic_at _ -> Fault.Panic_on sysno
        | _ -> Fault.Hang_on sysno
      in
      Some
        (Env.create
           ~fault:
             (Fault.of_schedule
                [ { Fault.fault; persistence = Fault.Permanent } ])
           (K.Config.v5_13_rw ())))

let arbitrary_driver_case =
  let open QCheck in
  let arming =
    Gen.(
      oneof
        [ return No_fault;
          map (fun i -> Panic_at i) small_nat;
          map (fun i -> Hang_at i) small_nat;
          map (fun n -> Fuel (1 + n)) (int_bound 8) ])
  in
  let schedules =
    Gen.(
      list_size (int_range 1 6)
        (frequency
           [ (1, return Sched.Sequential);
             (6, map (fun s -> Sched.Seeded s) (int_bound 100_000)) ]))
  in
  pair arbitrary_pair
    (make
       ~print:(fun (a, ss) ->
         Printf.sprintf "%s [%s]"
           (match a with
           | No_fault -> "no fault"
           | Panic_at i -> Printf.sprintf "panic@%d" i
           | Hang_at i -> Printf.sprintf "hang@%d" i
           | Fuel n -> Printf.sprintf "fuel %d" n)
           (String.concat "; "
              (List.map (Fmt.str "%a" Sched.pp_schedule) ss)))
       Gen.(pair arming schedules))

let prop_driver_matches_model =
  QCheck.Test.make
    ~name:"hook-deciding driver = reference driver (decisions, traces, crashes)"
    ~count:120 arbitrary_driver_case
    (fun ((sender, receiver), (arming, schedules)) ->
      match arming_env sender receiver arming with
      | None -> true
      | Some env ->
        List.for_all
          (fun schedule ->
            let model, model_clean =
              drive (fun ~schedule -> Model.run ~schedule) env ~schedule sender
                receiver
            in
            let driven, clean =
              drive (fun ~schedule -> Sched.run ~schedule) env ~schedule sender
                receiver
            in
            model_clean && clean && same_driven model driven)
          schedules)

let prop_walk_matches_model =
  QCheck.Test.make ~name:"walk/simulate = reference simulate"
    ~count:300
    QCheck.(triple (int_bound 40) (int_bound 40) (int_bound 100_000))
    (fun (a, b, seed) ->
      List.for_all
        (fun schedule ->
          Sched.simulate schedule [| a; b |] = Model.simulate schedule [| a; b |])
        [ Sched.Sequential; Sched.Seeded seed ])

let prop_classes_match_model =
  QCheck.Test.make ~name:"class keys = reference classes on random pairs"
    ~count:60
    QCheck.(pair arbitrary_pair (int_range 2 64))
    (fun ((sender, receiver), schedules) ->
      let _, runner = Lazy.force rw_exec in
      Runner.schedule_classes runner ~schedules ~sender ~receiver
      = Model.schedule_classes runner ~schedules ~sender ~receiver)

let test_keytab_exact_identity () =
  (* Class identity never rests on the hash: keys forced into one
     bucket keep distinct ids, and an equal key finds its id. *)
  let module Keytab = Kit_compact.Keytab in
  let t = Keytab.create 4 in
  let scratch = [| 1; 2 |] in
  check_int "first key" 0 (Keytab.id t ~hash:0 scratch);
  scratch.(0) <- 2;
  scratch.(1) <- 1;
  check_int "colliding key" 1 (Keytab.id t ~hash:0 scratch);
  check_int "equal key" 0 (Keytab.id t ~hash:0 [| 1; 2 |]);
  check Alcotest.(option int) "ids kept their own copies" (Some 1)
    (Keytab.find t ~hash:0 [| 2; 1 |]);
  check Alcotest.(option int) "absent key" None (Keytab.find t ~hash:0 [| 9 |]);
  check_int "length" 2 (Keytab.length t)

let prop_search_matches_model =
  (* Fresh runners per side, so each side's execution count and caches
     are its own. *)
  QCheck.Test.make ~name:"search = reference search on random pairs" ~count:40
    QCheck.(pair arbitrary_pair (int_range 2 48))
    (fun ((sender, receiver), schedules) ->
      let search_with search =
        let runner = Runner.create (Env.create (K.Config.v5_13_rw ())) in
        let seq = Runner.execute runner ~sender ~receiver in
        let e0 = Runner.executions runner in
        let s = search runner ~schedules ~sender ~receiver seq in
        (s, Runner.executions runner - e0)
      in
      let s, n = search_with Runner.search_schedules in
      let m, n' = search_with Model.search_schedules in
      n = n'
      && search_fp s = search_fp m
      && List.for_all2
           (fun c c' ->
             c.Runner.cc_diffs = c'.Runner.cc_diffs
             && c.Runner.cc_raw_diffs = c'.Runner.cc_raw_diffs)
           s.Runner.sr_findings m.Runner.sr_findings)

(* The seed-7 race-sched campaign's inputs (kernel 5.13-rw, corpus 320,
   DF-IA): every cluster representative as a (sender, receiver) pair. *)
let race_reps =
  lazy
    (let opts =
       { Campaign.default_options with
         Campaign.config = K.Config.v5_13_rw ();
         corpus_size = 320;
         seed = 7 }
     in
     let prepared = Campaign.prepare opts in
     let corpus = Campaign.prepared_corpus prepared in
     let generation = Campaign.generate_prepared prepared in
     List.map
       (fun (tc : Testcase.t) ->
         (corpus.(tc.Testcase.sender), corpus.(tc.Testcase.receiver)))
       generation.Cluster.reps)

let race_schedules = 128

let test_classes_match_model_on_campaign () =
  let runner = Runner.create (Env.create (K.Config.v5_13_rw ())) in
  let reps = Lazy.force race_reps in
  check_bool "representatives" true (List.length reps > 400);
  List.iteri
    (fun i (sender, receiver) ->
      let classes =
        Runner.schedule_classes runner ~schedules:race_schedules ~sender
          ~receiver
      in
      if classes
         <> Model.schedule_classes runner ~schedules:race_schedules ~sender
              ~receiver
      then Alcotest.failf "representative %d: classes differ from the model" i)
    reps

(* Every [stride]-th representative, from [offset]. *)
let sample ~stride ~offset reps =
  List.filteri (fun i _ -> i mod stride = offset) reps

let test_search_matches_model () =
  (* Separate runners with their own registries, so each side's
     execution count is its own, read right after its own search. The
     model has no search memo: on a pair's first search the runner
     executes what the model does, and on a repeat it executes nothing
     and returns what the model recomputes. *)
  let runner_of () =
    Runner.create ~obs:(Kit_obs.Obs.create ()) (Env.create (K.Config.v5_13_rw ()))
  in
  let runner = runner_of () and model = runner_of () in
  let searched = Hashtbl.create 64 in
  let findings = ref 0 and repeats = ref 0 and first_runs = ref 0 in
  List.iteri
    (fun i (sender, receiver) ->
      let seq = Runner.execute runner ~sender ~receiver in
      let seq' = Runner.execute model ~sender ~receiver in
      let e0 = Runner.executions runner in
      let s =
        Runner.search_schedules runner ~schedules:race_schedules ~sender
          ~receiver seq
      in
      let ran = Runner.executions runner - e0 in
      let e0' = Runner.executions model in
      let m =
        Model.search_schedules model ~schedules:race_schedules ~sender
          ~receiver seq'
      in
      let ran' = Runner.executions model - e0' in
      let name = Printf.sprintf "representative %d" i in
      check_bool (name ^ ": counts, seeds, fingerprints, interference") true
        (search_fp s = search_fp m);
      let pair = (Program.hash sender, sender, Program.hash receiver, receiver) in
      if Hashtbl.mem searched pair then begin
        incr repeats;
        check_int (name ^ ": a repeated pair executes nothing") 0 ran
      end
      else begin
        Hashtbl.add searched pair ();
        first_runs := !first_runs + ran;
        check_int (name ^ ": executions") ran' ran
      end;
      List.iter2
        (fun c c' ->
          incr findings;
          check_bool (name ^ ": diffs") true
            (c.Runner.cc_diffs = c'.Runner.cc_diffs);
          check_bool (name ^ ": raw diffs") true
            (c.Runner.cc_raw_diffs = c'.Runner.cc_raw_diffs))
        s.Runner.sr_findings m.Runner.sr_findings)
    (sample ~stride:3 ~offset:0 (Lazy.force race_reps));
  check_bool "the sample has findings" true (!findings > 0);
  check_bool "first searches execute" true (!first_runs > 0);
  check_bool "the sample repeats pairs" true (!repeats > 0)

(* --- the POR contract on campaign representatives -------------------------- *)

(* What one seed's interleaved execution shows once judged like a
   search judges it: nothing beyond the solo trace after masking, or a
   masked divergence with this fingerprint. *)
type masked = Quiet | Diverges of int

let masked_outcome runner receiver ~trace_b trace =
  if Compare.diff_trees trace trace_b = [] then Quiet
  else
    let mask = Runner.nondet_mask runner receiver in
    match
      Compare.diff_trees (Nondet.apply_mask mask trace)
        (Nondet.apply_mask mask trace_b)
    with
    | [] -> Quiet
    | diffs -> Diverges (Compare.fingerprint_diffs diffs)

(* Every seed of a sampled representative run alone: its raw trace and
   masked outcome, next to the representative's classes and pruned
   search. The contract tests below read this. *)
type exhaustive = {
  x_seq : masked;                       (* the sequential run *)
  x_classes : Runner.sched_class list;
  x_traces : Ast.t array;               (* seed -> raw receiver trace *)
  x_outcomes : masked array;            (* seed -> masked outcome *)
  x_search : Runner.search;
}

let contract_sample =
  lazy
    (let env = Env.create (K.Config.v5_13_rw ()) in
     let runner = Runner.create env in
     List.map
       (fun (sender, receiver) ->
         let seq = Runner.execute runner ~sender ~receiver in
         let trace_b = seq.Runner.trace_b in
         let x_traces =
           Array.init race_schedules (fun s ->
               Runner.run_interleaved runner ~schedule:(Sched.Seeded s)
                 ~base:env.Env.base0 sender receiver)
         in
         { x_seq = masked_outcome runner receiver ~trace_b seq.Runner.trace_a;
           x_classes =
             Runner.schedule_classes runner ~schedules:race_schedules ~sender
               ~receiver;
           x_traces;
           x_outcomes =
             Array.map (masked_outcome runner receiver ~trace_b) x_traces;
           x_search =
             Runner.search_schedules runner ~schedules:race_schedules ~sender
               ~receiver seq })
       (sample ~stride:3 ~offset:1 (Lazy.force race_reps)))

let test_por_contract_masked () =
  (* Members of a class have equal masked outcomes, and the sequential
     class's members have the sequential run's — although their raw
     traces need not be equal, as the sample must show. *)
  let raw_divergent = ref 0 in
  List.iteri
    (fun i x ->
      let raw_equal = ref true in
      List.iter
        (fun (cls : Runner.sched_class) ->
          let rep = List.hd cls.Runner.cls_seeds in
          let expected =
            if cls.Runner.cls_sequential then x.x_seq else x.x_outcomes.(rep)
          in
          List.iter
            (fun s ->
              if x.x_outcomes.(s) <> expected then
                Alcotest.failf
                  "sampled representative %d: seed %d's masked outcome differs \
                   from its class's"
                  i s;
              if not (Ast.equal x.x_traces.(s) x.x_traces.(rep)) then
                raw_equal := false)
            cls.Runner.cls_seeds)
        x.x_classes;
      if not !raw_equal then incr raw_divergent)
    (Lazy.force contract_sample);
  check_bool "the sample holds a raw-divergent representative" true
    (!raw_divergent > 0)

let test_por_exhaustive_oracle () =
  (* Running every seed alone finds exactly the pruned search's
     findings: the same fingerprints, each reproduced by exactly its
     listed seeds. *)
  List.iteri
    (fun i x ->
      let seq_fp =
        match x.x_seq with
        | Diverges fp -> fp
        | Quiet -> Compare.fingerprint_diffs []
      in
      let oracle = Hashtbl.create 8 in
      Array.iteri
        (fun s -> function
          | Diverges fp when fp <> seq_fp ->
            Hashtbl.replace oracle fp
              (s :: Option.value ~default:[] (Hashtbl.find_opt oracle fp))
          | Diverges _ | Quiet -> ())
        x.x_outcomes;
      let exhaustive =
        List.sort compare
          (Hashtbl.fold
             (fun fp seeds acc -> (fp, List.rev seeds) :: acc)
             oracle [])
      in
      let pruned =
        List.sort compare
          (List.map
             (fun c -> (c.Runner.cc_fingerprint, c.Runner.cc_seeds))
             x.x_search.Runner.sr_findings)
      in
      if exhaustive <> pruned then
        Alcotest.failf
          "sampled representative %d: all-seeds findings differ from the \
           pruned search's"
          i)
    (Lazy.force contract_sample)

(* --- the search's output, pinned ------------------------------------------- *)

(* kit campaign --corpus-size 96 --seed 3 --race-bugs --schedules 128 *)
let golden_options =
  { Campaign.default_options with
    Campaign.config = K.Config.v5_13_rw ();
    corpus_size = 96;
    seed = 3;
    schedules = 128 }

let golden_campaign = lazy (Campaign.run golden_options)

(* --- attribution from diffs = attribution from whole traces --------------- *)

(* Concurrent attribution as it was while reports kept both traces: the
   gained marker is scanned for over the whole interleaved trace and the
   whole solo trace. *)
module Whole_trace_oracle = struct
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0

  let rec mentions (t : Ast.t) needle =
    contains t.Ast.value needle
    || List.exists (fun c -> mentions c needle) t.Ast.children

  let has_call prog sysno =
    List.exists
      (fun (c : Program.call) -> Kit_abi.Sysno.equal c.Program.sysno sysno)
      (Program.calls prog)

  let opens_path prog path =
    List.exists
      (fun (c : Program.call) ->
        Kit_abi.Sysno.equal c.Program.sysno Kit_abi.Sysno.Open
        && List.mem (Kit_abi.Value.Str path) c.Program.args)
      (Program.calls prog)

  let diff_mentions (r : Report.t) needle =
    List.exists
      (fun (d : Compare.diff) ->
        contains d.Compare.left.Ast.value needle
        || contains d.Compare.right.Ast.value needle
        || List.exists (fun p -> contains p needle) d.Compare.path)
      r.Report.diffs

  let attribute ~trace_a ~trace_b (r : Report.t) =
    let sender = r.Report.sender and receiver = r.Report.receiver in
    let marker = "seq_file: truncated" in
    if mentions trace_a marker && not (mentions trace_b marker) then
      Oracle.Bug Bugs.RW3_seqfile_busy
    else if
      has_call sender Kit_abi.Sysno.Get_cookie
      && has_call receiver Kit_abi.Sysno.Get_cookie
    then Oracle.Bug Bugs.RW2_cookie_window
    else if
      has_call sender Kit_abi.Sysno.Alloc_protomem
      && opens_path receiver Consts.proc_net_sockstat
      && diff_mentions r "mem"
    then Oracle.Bug Bugs.RW1_protomem_inflight
    else Oracle.Under_investigation
end

(* Every concurrent report of a campaign: re-derive its traces — the
   interleaved run under the finding's first seed, which must reproduce
   the report's diffs, and the receiver's solo baseline — and check the
   diff-reading oracle agrees with the whole-trace one. *)
let check_attribution_from_diffs label (c : Campaign.t) =
  let o = c.Campaign.options in
  let runner =
    Runner.create ~reruns:o.Campaign.reruns (Env.create o.Campaign.config)
  in
  let gained = ref 0 in
  List.iteri
    (fun i (r : Report.t) ->
      let name = Printf.sprintf "%s: concurrent report %d" label i in
      match r.Report.origin with
      | Report.Sequential -> Alcotest.failf "%s is sequential" name
      | Report.Concurrent { seeds; raw_diffs; _ } ->
        let sender = r.Report.sender and receiver = r.Report.receiver in
        let trace_a =
          Runner.run_interleaved runner ~schedule:(Sched.Seeded (List.hd seeds))
            ~base:runner.Runner.env.Env.base0 sender receiver
        in
        let trace_b = Runner.baseline_trace runner receiver in
        let mask = Runner.nondet_mask runner receiver in
        if
          Compare.diff_trees (Nondet.apply_mask mask trace_a)
            (Nondet.apply_mask mask trace_b)
          <> r.Report.diffs
          || Compare.diff_trees trace_a trace_b <> raw_diffs
        then Alcotest.failf "%s: the first seed does not reproduce its diffs" name;
        let reference = Whole_trace_oracle.attribute ~trace_a ~trace_b r in
        if reference = Oracle.Bug Bugs.RW3_seqfile_busy then incr gained;
        if not (Oracle.equal_attribution (Oracle.attribute_concurrent r) reference)
        then
          Alcotest.failf "%s: attributed %s, whole traces say %s" name
            (Oracle.attribution_to_string (Oracle.attribute_concurrent r))
            (Oracle.attribution_to_string reference))
    c.Campaign.concurrent;
  check_bool (label ^ ": some reports gained the seq_file marker") true
    (!gained > 0)

let test_attribution_from_diffs () =
  check_attribution_from_diffs "golden" (Lazy.force golden_campaign);
  check_attribution_from_diffs "race-sched seed 7"
    (Campaign.run { golden_options with Campaign.corpus_size = 320; seed = 7 })

let test_golden_race_summary () =
  (* The golden campaign's --summary, byte for byte. *)
  (* [dune runtest] runs in the test directory, [dune exec] in the root *)
  let expected =
    match
      List.find_opt Sys.file_exists
        [ "golden/race-s3-c96-s128.txt"; "test/golden/race-s3-c96-s128.txt" ]
    with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> Alcotest.fail "golden/race-s3-c96-s128.txt not found"
  in
  check Alcotest.string "summary" expected
    (Proto.summary (Lazy.force golden_campaign))

let test_golden_search_work () =
  (* The golden campaign's 451 representatives are 185 distinct pairs:
     the search memo runs each pair's search once, so the campaign
     needs under 40% of the executions of a memo-off run (baseline
     cache off), and dealing domains by receiver keeps the saving
     within 2% at --domains 2. Results never move. *)
  let memo = Lazy.force golden_campaign in
  let off =
    Campaign.run { golden_options with Campaign.baseline_cache = false }
  in
  let d2 = Campaign.run { golden_options with Campaign.domains = 2 } in
  let execs (c : Campaign.t) = c.Campaign.executions in
  check_bool
    (Printf.sprintf "memo %d < 40%% of memo-off %d" (execs memo) (execs off))
    true
    (100 * execs memo < 40 * execs off);
  check_bool
    (Printf.sprintf "--domains 2 %d within 2%% of sequential %d" (execs d2)
       (execs memo))
    true
    (50 * abs (execs d2 - execs memo) <= execs memo);
  check Alcotest.string "memo-off summary" (Proto.summary memo)
    (Proto.summary off);
  check Alcotest.string "--domains 2 summary" (Proto.summary memo)
    (Proto.summary d2)

let suite =
  [
    Alcotest.test_case "mix is pure and non-negative" `Quick test_mix_pure;
    Alcotest.test_case "choose: Sequential picks lowest" `Quick
      test_choose_sequential;
    Alcotest.test_case "simulate: order-preserving merge" `Quick
      test_simulate_shape;
    Alcotest.test_case "Sequential schedule = run_pair on reproducers" `Quick
      test_sequential_equals_run_pair;
    Alcotest.test_case "race-window bugs invisible sequentially" `Quick
      test_race_bugs_sequentially_invisible;
    Alcotest.test_case "search finds each seeded race-window bug" `Quick
      test_search_finds_each_race_bug;
    Alcotest.test_case "findings deduplicated by fingerprint" `Quick
      test_findings_deduplicated;
    Alcotest.test_case "search memo: repeats are free, misses recompute"
      `Quick test_search_memo;
    QCheck_alcotest.to_alcotest prop_sequential_schedule_equals_run_pair;
    QCheck_alcotest.to_alcotest prop_search_deterministic_across_runners;
    QCheck_alcotest.to_alcotest prop_por_soundness;
    Alcotest.test_case "schedule search leaves sequential results intact"
      `Quick test_campaign_sequential_results_unchanged;
    Alcotest.test_case "campaign deterministic across domains" `Quick
      test_campaign_deterministic_across_domains;
    Alcotest.test_case "campaign deterministic across procs" `Quick
      test_campaign_deterministic_across_procs;
    Alcotest.test_case "campaign finds all race-window bugs" `Slow
      test_campaign_finds_all_race_bugs;
    QCheck_alcotest.to_alcotest prop_driver_matches_model;
    QCheck_alcotest.to_alcotest prop_walk_matches_model;
    QCheck_alcotest.to_alcotest prop_classes_match_model;
    QCheck_alcotest.to_alcotest prop_search_matches_model;
    Alcotest.test_case "class identity is the exact key, not its hash" `Quick
      test_keytab_exact_identity;
    Alcotest.test_case "class keys = reference classes on race-sched reps"
      `Quick test_classes_match_model_on_campaign;
    Alcotest.test_case "search = reference search on race-sched reps" `Quick
      test_search_matches_model;
    Alcotest.test_case "POR contract: class members' masked outcomes agree"
      `Quick test_por_contract_masked;
    Alcotest.test_case "POR contract: all seeds alone = pruned search" `Quick
      test_por_exhaustive_oracle;
    Alcotest.test_case "golden: race-window campaign summary" `Quick
      test_golden_race_summary;
    Alcotest.test_case "golden: the search memo's saving, any domain count"
      `Quick test_golden_search_work;
    Alcotest.test_case "concurrent attribution from diffs = from whole traces"
      `Quick test_attribution_from_diffs;
  ]
