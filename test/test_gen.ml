(* Tests for test case generation: data-flow analysis and the DF /
   DF-IA / DF-ST / RAND clustering strategies. *)

module K = Kit_kernel
module Dataflow = Kit_gen.Dataflow
module Cluster = Kit_gen.Cluster
module Testcase = Kit_gen.Testcase
module Spec = Kit_spec.Spec
module Corpus = Kit_abi.Corpus
module Syzlang = Kit_abi.Syzlang
module Campaign = Kit_core.Campaign

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let config = K.Config.v5_13 ()

(* A small deterministic fixture shared across tests. *)
let fixture =
  lazy
    (let corpus = Corpus.generate ~seed:7 ~size:64 in
     let profiles = Dataflow.profile_corpus config Spec.default corpus in
     let map = Dataflow.build_map profiles in
     (corpus, profiles, map))

let run_strategy strategy =
  let corpus, _, map = Lazy.force fixture in
  Cluster.run strategy ~seed:7 ~corpus_size:(List.length corpus) map

(* --- dataflow ------------------------------------------------------------- *)

let test_profiles_cover_corpus () =
  let corpus, profiles, _ = Lazy.force fixture in
  check_int "one profile per program" (List.length corpus)
    (Array.length profiles.Dataflow.accesses)

let test_protected_flags_shape () =
  let _, profiles, _ = Lazy.force fixture in
  Array.iteri
    (fun i prog ->
      check_int
        (Printf.sprintf "flags for program %d" i)
        (Kit_abi.Program.length prog)
        (Array.length profiles.Dataflow.protected_calls.(i)))
    profiles.Dataflow.programs

let test_total_flows_positive () =
  let _, _, map = Lazy.force fixture in
  check_bool "flows exist" true (Dataflow.total_flows map > 0)

let test_reader_filter_drops_unprotected () =
  (* A corpus of only unprotected readers produces no qualifying flows. *)
  let corpus =
    [ Syzlang.parse "r0 = clock_gettime()"; Syzlang.parse "r0 = getpid()" ]
  in
  let profiles = Dataflow.profile_corpus config Spec.default corpus in
  let map = Dataflow.build_map profiles in
  check_int "no flows" 0 (Dataflow.total_flows map)

let test_known_flow_pairs_exist () =
  (* The ptype flow (bug #1) must pair the packet-socket program with the
     ptype reader. *)
  let corpus =
    [ Syzlang.parse "r0 = socket(3)";
      Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" ]
  in
  let profiles = Dataflow.profile_corpus config Spec.default corpus in
  let map = Dataflow.build_map profiles in
  let result = Cluster.run Cluster.Df_ia ~corpus_size:2 map in
  check_bool "pair (0 -> 1) generated" true
    (List.exists
       (fun (tc : Testcase.t) -> tc.Testcase.sender = 0 && tc.Testcase.receiver = 1)
       result.Cluster.reps)

(* --- clustering strategies -------------------------------------------------- *)

let test_strategy_ordering () =
  let df = run_strategy Cluster.Df in
  let ia = run_strategy Cluster.Df_ia in
  let st1 = run_strategy (Cluster.Df_st 1) in
  let st2 = run_strategy (Cluster.Df_st 2) in
  check_bool "IA <= ST-1" true (ia.Cluster.clusters <= st1.Cluster.clusters);
  check_bool "ST-1 <= ST-2" true (st1.Cluster.clusters <= st2.Cluster.clusters);
  check_bool "ST-2 << DF" true (st2.Cluster.clusters < df.Cluster.generated);
  check_bool "strictly finer at ST-1" true
    (ia.Cluster.clusters < st1.Cluster.clusters);
  check_bool "strictly finer at ST-2" true
    (st1.Cluster.clusters < st2.Cluster.clusters)

let test_cluster_reps_match_count () =
  let ia = run_strategy Cluster.Df_ia in
  check_int "one representative per cluster" ia.Cluster.clusters
    (List.length ia.Cluster.reps)

let test_cluster_reps_sorted_deterministic () =
  let a = run_strategy Cluster.Df_ia in
  let b = run_strategy Cluster.Df_ia in
  check_bool "deterministic" true
    (List.equal (fun x y -> Testcase.compare x y = 0) a.Cluster.reps
       b.Cluster.reps)

let test_cluster_flows_attached () =
  let ia = run_strategy Cluster.Df_ia in
  check_bool "every DF rep carries its witness flow" true
    (List.for_all
       (fun (tc : Testcase.t) -> Option.is_some tc.Testcase.flow)
       ia.Cluster.reps)

let test_df_has_no_reps () =
  let df = run_strategy Cluster.Df in
  check_int "DF is counted, not executed" 0 (List.length df.Cluster.reps)

(* DF-ST-k refines DF-IA: every ST cluster's flows map into one IA
   cluster key. Verified via representatives: distinct ST reps that share
   (w_ip, r_ip) collapse into the same IA cluster. *)
let test_st_refines_ia () =
  let ia = run_strategy Cluster.Df_ia in
  let st1 = run_strategy (Cluster.Df_st 1) in
  let ia_keys =
    List.filter_map
      (fun (tc : Testcase.t) ->
        Option.map
          (fun f -> (f.Testcase.w_ip, f.Testcase.r_ip))
          tc.Testcase.flow)
      ia.Cluster.reps
    |> List.sort_uniq Stdlib.compare
  in
  let st_keys =
    List.filter_map
      (fun (tc : Testcase.t) ->
        Option.map
          (fun f -> (f.Testcase.w_ip, f.Testcase.r_ip))
          tc.Testcase.flow)
      st1.Cluster.reps
    |> List.sort_uniq Stdlib.compare
  in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "ST-1 covers exactly the IA instruction pairs" ia_keys st_keys

let test_rand_budget_respected () =
  let rand = run_strategy (Cluster.Rand 50) in
  check_int "budget" 50 (List.length rand.Cluster.reps);
  check_bool "no duplicate pairs" true
    (let sorted = List.sort Testcase.compare rand.Cluster.reps in
     let rec no_dup = function
       | a :: (b :: _ as rest) -> Testcase.compare a b <> 0 && no_dup rest
       | [ _ ] | [] -> true
     in
     no_dup sorted)

let test_rand_deterministic_per_seed () =
  let corpus, _, map = Lazy.force fixture in
  let n = List.length corpus in
  let a = Cluster.run (Cluster.Rand 40) ~seed:3 ~corpus_size:n map in
  let b = Cluster.run (Cluster.Rand 40) ~seed:3 ~corpus_size:n map in
  let c = Cluster.run (Cluster.Rand 40) ~seed:4 ~corpus_size:n map in
  let eq x y =
    List.equal (fun p q -> Testcase.compare p q = 0) x.Cluster.reps y.Cluster.reps
  in
  check_bool "same seed same pairs" true (eq a b);
  check_bool "different seed different pairs" false (eq a c)

let test_rand_in_range () =
  let corpus, _, _ = Lazy.force fixture in
  let n = List.length corpus in
  let rand = run_strategy (Cluster.Rand 80) in
  check_bool "indices within corpus" true
    (List.for_all
       (fun (tc : Testcase.t) ->
         tc.Testcase.sender >= 0 && tc.Testcase.sender < n
         && tc.Testcase.receiver >= 0 && tc.Testcase.receiver < n)
       rand.Cluster.reps)

(* Whether DF-ST-[k] keys two writes of one instruction under these call
   stacks (innermost first) alike: program 0 writes an address under
   both, program 1 reads it, and the table holds one cluster exactly
   when the two stack contexts agree. *)
let same_context k s1 s2 =
  let access rw stack =
    { Kit_profile.Stackrec.addr = 64; width = 4; rw; ip = 1; stack;
      stack_hash = Hashtbl.hash stack; sys_index = 0 }
  in
  let st = Cluster.start (Cluster.Df_st k) in
  ignore (Cluster.feed st ~prog:0 [ access K.Kevent.Write s1; access K.Kevent.Write s2 ]);
  ignore (Cluster.feed st ~prog:1 [ access K.Kevent.Read [] ]);
  (Cluster.finalize st).Cluster.clusters = 1

let test_context_truncation () =
  (* The innermost frame and its caller are folded into the instruction
     address; the context is the k frames above them. *)
  check_bool "drops site frames, takes k" true
    (same_context 2 [ 1; 2; 3; 4; 5 ] [ 8; 9; 3; 4; 6 ]);
  check_bool "a frame within k counts" false
    (same_context 2 [ 1; 2; 3; 4; 5 ] [ 1; 2; 3; 9; 5 ]);
  check_bool "short stack" true (same_context 2 [ 1 ] [ 7 ]);
  check_bool "empty stack" true (same_context 3 [] [ 5; 6 ])

let test_context_edges () =
  (* Exactly the two folded site frames: nothing above them. *)
  check_bool "two-frame stack" true (same_context 2 [ 1; 2 ] []);
  check_bool "two-frame stack, k=1" true (same_context 1 [ 1; 2 ] [ 7; 8 ]);
  (* k = 0 keeps no context regardless of depth — DF-ST-0 degenerates to
     DF-IA. *)
  check_bool "k=0 deep stack" true (same_context 0 [ 1; 2; 3; 4; 5 ] [ 6; 7; 8 ]);
  check_bool "k=0 empty stack" true (same_context 0 [] [ 1; 2; 3 ]);
  (* Three frames: one frame of context survives even for large k. *)
  check_bool "three-frame stack, large k" true
    (same_context 10 [ 1; 2; 3 ] [ 8; 9; 3 ]);
  check_bool "its frame counts" false (same_context 10 [ 1; 2; 3 ] [ 1; 2 ])

let test_rand_budget_clamped () =
  (* A 2-program corpus has only 2² = 4 distinct (sender, receiver)
     pairs; an over-budget request is clamped and filled exactly. *)
  let corpus =
    [ Syzlang.parse "r0 = socket(3)";
      Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" ]
  in
  let profiles = Dataflow.profile_corpus config Spec.default corpus in
  let map = Dataflow.build_map profiles in
  let over = Cluster.run (Cluster.Rand 100) ~seed:7 ~corpus_size:2 map in
  check_int "requested recorded" 100 over.Cluster.requested;
  check_int "delivered clamped to corpus²" 4 over.Cluster.delivered;
  check_int "reps match delivered" 4 (List.length over.Cluster.reps);
  check_bool "all four pairs distinct" true
    (List.sort_uniq Testcase.compare over.Cluster.reps |> List.length = 4);
  let exact = Cluster.run (Cluster.Rand 4) ~seed:7 ~corpus_size:2 map in
  check_int "exact budget fully delivered" 4 exact.Cluster.delivered

let test_rand_sparse_budget_exact () =
  (* Historical behaviour: sparse budgets (well under corpus²) must
     still deliver exactly the requested count. *)
  let rand = run_strategy (Cluster.Rand 50) in
  check_int "requested" 50 rand.Cluster.requested;
  check_int "delivered" 50 rand.Cluster.delivered

let test_df_total_matches_map_scan () =
  let _, _, map = Lazy.force fixture in
  let expected = Dataflow.total_flows map in
  List.iter
    (fun strategy ->
      let r = run_strategy strategy in
      check_int
        (Cluster.strategy_name strategy ^ " df_total")
        expected r.Cluster.df_total)
    [ Cluster.Df; Cluster.Df_ia; Cluster.Df_st 2; Cluster.Rand 40 ]

let test_sizes_distribution_consistent () =
  List.iter
    (fun strategy ->
      let r = run_strategy strategy in
      let name = Cluster.strategy_name strategy in
      check_int (name ^ ": size counts sum to clusters") r.Cluster.clusters
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Cluster.sizes);
      check_bool (name ^ ": every cluster holds at least one member") true
        (List.fold_left (fun acc (sz, n) -> acc + (sz * n)) 0 r.Cluster.sizes
         >= r.Cluster.clusters);
      check_bool (name ^ ": ascending by size") true
        (let rec asc = function
           | (a, _) :: ((b, _) :: _ as rest) -> a < b && asc rest
           | [ _ ] | [] -> true
         in
         asc r.Cluster.sizes))
    [ Cluster.Df_ia; Cluster.Df_st 2; Cluster.Rand 40 ]

(* --- online clustering ------------------------------------------------------ *)

(* Fold the fixture corpus one program at a time and compare the final
   state against the batch run over the fully built access map. *)
let online_result strategy =
  let corpus, _, _ = Lazy.force fixture in
  let profiler = Dataflow.profiler config Spec.default in
  let st = Cluster.start ~seed:7 strategy in
  let events = ref [] in
  List.iteri
    (fun prog p ->
      let accs = snd (Dataflow.profile_program_full profiler p) in
      events := List.rev_append (Cluster.feed st ~prog accs) !events)
    corpus;
  (Cluster.finalize st, List.rev !events)

let check_online_equals_batch strategy =
  let batch = run_strategy strategy in
  let online, _ = online_result strategy in
  let name = Cluster.strategy_name strategy in
  check_int (name ^ ": generated") batch.Cluster.generated
    online.Cluster.generated;
  check_int (name ^ ": clusters") batch.Cluster.clusters
    online.Cluster.clusters;
  check_int (name ^ ": df_total") batch.Cluster.df_total
    online.Cluster.df_total;
  check_bool (name ^ ": identical representatives") true
    (List.equal
       (fun x y -> Testcase.compare x y = 0)
       batch.Cluster.reps online.Cluster.reps);
  check_bool (name ^ ": identical size distribution") true
    (batch.Cluster.sizes = online.Cluster.sizes)

let test_online_equals_batch () =
  List.iter check_online_equals_batch
    [ Cluster.Df; Cluster.Df_ia; Cluster.Df_st 1; Cluster.Df_st 2;
      Cluster.Rand 40 ]

(* Replay an event stream into a table of cluster id -> representative,
   checking that every seal is fresh and every change hits a sealed
   cluster; returns the representatives in Testcase order. *)
let replay_events events =
  let replay = Hashtbl.create 64 in
  List.iter
    (function
      | Cluster.Sealed (id, tc) ->
        check_bool "sealed ids are fresh" false (Hashtbl.mem replay id);
        Hashtbl.replace replay id tc
      | Cluster.Rep_changed (id, tc) ->
        check_bool "rep changes hit sealed clusters" true
          (Hashtbl.mem replay id);
        Hashtbl.replace replay id tc)
    events;
  Hashtbl.fold (fun _ tc acc -> tc :: acc) replay []
  |> List.sort Testcase.compare

let same_reps a b = List.equal (fun x y -> Testcase.compare x y = 0) a b

let test_online_events_track_live () =
  (* Replaying the event stream reconstructs exactly the final cluster
     table: every seal and rep change is reported, none is spurious. *)
  let online, events = online_result Cluster.Df_ia in
  check_bool "replayed representatives = finalized" true
    (same_reps (replay_events events) online.Cluster.reps)

(* One instruction pair touching two addresses: the pair's first
   candidate (program 5 writes 100, program 3 read it) is sealed, and a
   later program (7 reads 200, which program 2 wrote) lowers the
   representative. Campaign corpora never do this, since the kernel
   hashes the address into the instruction address. *)
let test_online_rep_changed () =
  let access ~addr ~rw ~ip =
    { Kit_profile.Stackrec.addr; width = 8; rw; ip; stack = [];
      stack_hash = 0; sys_index = 0 }
  in
  let accesses = function
    | 2 -> [ access ~addr:200 ~rw:K.Kevent.Write ~ip:7 ]
    | 3 -> [ access ~addr:100 ~rw:K.Kevent.Read ~ip:9 ]
    | 5 -> [ access ~addr:100 ~rw:K.Kevent.Write ~ip:7 ]
    | 7 -> [ access ~addr:200 ~rw:K.Kevent.Read ~ip:9 ]
    | _ -> []
  in
  let st = Cluster.start Cluster.Df_ia in
  let map = Kit_profile.Accessmap.create () in
  let events =
    List.concat_map
      (fun prog ->
        Kit_profile.Accessmap.add map ~prog (accesses prog);
        Cluster.feed st ~prog (accesses prog))
      (List.init 8 Fun.id)
  in
  let pair event =
    let kind, tc =
      match event with
      | Cluster.Sealed (_, tc) -> ("sealed", tc)
      | Cluster.Rep_changed (_, tc) -> ("rep_changed", tc)
    in
    (kind, tc.Testcase.sender, tc.Testcase.receiver)
  in
  check
    Alcotest.(list (triple string int int))
    "events" [ ("sealed", 5, 3); ("rep_changed", 2, 7) ] (List.map pair events);
  let online = Cluster.finalize st in
  let batch = Cluster.run Cluster.Df_ia ~corpus_size:8 map in
  check_bool "finalize = batch run" true
    (same_reps online.Cluster.reps batch.Cluster.reps
    && online.Cluster.sizes = batch.Cluster.sizes
    && online.Cluster.df_total = batch.Cluster.df_total
    && online.Cluster.clusters = batch.Cluster.clusters);
  check_bool "the changed representative is final" true
    (same_reps (replay_events events) online.Cluster.reps)

(* The first field in which two results differ, if any. *)
let result_diff (a : Cluster.result) (b : Cluster.result) =
  List.find_opt
    (fun (_, differs) -> differs)
    [ ("reps", not (same_reps a.Cluster.reps b.Cluster.reps));
      ("sizes", a.Cluster.sizes <> b.Cluster.sizes);
      ("df_total", a.Cluster.df_total <> b.Cluster.df_total);
      ("clusters", a.Cluster.clusters <> b.Cluster.clusters);
      ("generated", a.Cluster.generated <> b.Cluster.generated);
      ("delivered", a.Cluster.delivered <> b.Cluster.delivered) ]
  |> Option.map fst

(* The reference model: the batch profile, access map and [Cluster.run]
   over the first [n] programs of [corpus]. *)
let reference ~seed corpus n strategy =
  let programs = List.filteri (fun i _ -> i < n) corpus in
  Cluster.run strategy ~seed ~corpus_size:n
    (Dataflow.build_map (Dataflow.profile_corpus config Spec.default programs))

(* Online = reference over many corpora: every strategy's table is fed
   from the streaming profiler, finalized once at a random midpoint
   (sizes are folded there, so it must not disturb later feeds), fed to
   the end and finalized again; both results must equal the reference
   over the same programs. *)
let prop_online_equals_reference =
  QCheck.Test.make ~name:"online: finalize = Cluster.run, midpoint included"
    ~count:30
    QCheck.(
      quad (int_bound 100_000) (int_range 1 200) (int_bound 200)
        (int_range 1 400))
    (fun (seed, size, mid, budget) ->
      let mid = mid mod (size + 1) in
      let corpus = Corpus.generate ~seed ~size in
      let strategies =
        [ Cluster.Df; Cluster.Df_ia; Cluster.Df_st 0; Cluster.Df_st 1;
          Cluster.Df_st 2; Cluster.Df_st 3; Cluster.Rand budget ]
      in
      let tables = List.map (Cluster.start ~seed) strategies in
      let profiler = Dataflow.profiler config Spec.default in
      let at_mid = ref [] in
      List.iteri
        (fun prog p ->
          if prog = mid then at_mid := List.map Cluster.finalize tables;
          let accs = snd (Dataflow.profile_program_full profiler p) in
          List.iter (fun st -> ignore (Cluster.feed st ~prog accs)) tables)
        corpus;
      if mid = size then at_mid := List.map Cluster.finalize tables;
      let check n results =
        List.iter2
          (fun strategy online ->
            match result_diff online (reference ~seed corpus n strategy) with
            | None -> ()
            | Some field ->
              QCheck.Test.fail_reportf "%s over %d of %d programs: %s differs"
                (Cluster.strategy_name strategy) n size field)
          strategies results
      in
      check mid !at_mid;
      check size (List.map Cluster.finalize tables);
      true)

(* One profiling pass for several strategies: each named strategy, and
   DF and RAND generated later from the flow universe, gets the
   generation a single-strategy [prepare] gives it. *)
let prop_prepare_many_equals_one =
  QCheck.Test.make ~name:"prepare: several strategies = one at a time"
    ~count:8
    QCheck.(pair (int_bound 100_000) (int_range 1 120))
    (fun (seed, corpus_size) ->
      let options =
        { Campaign.default_options with Campaign.seed; corpus_size }
      in
      let keyed = [ Cluster.Df_ia; Cluster.Df_st 1; Cluster.Df_st 2 ] in
      let many = Campaign.prepare ~strategies:keyed options in
      List.for_all
        (fun strategy ->
          let one = Campaign.prepare { options with Campaign.strategy } in
          match
            result_diff
              (Campaign.generate_prepared ~strategy many)
              (Campaign.generate_prepared one)
          with
          | None -> true
          | Some field ->
            QCheck.Test.fail_reportf "%s: %s differs"
              (Cluster.strategy_name strategy) field)
        (keyed @ [ Cluster.Df; Cluster.Rand 60 ]))

let test_online_feed_order_enforced () =
  let st = Cluster.start Cluster.Df_ia in
  let _ = Cluster.feed st ~prog:0 [] in
  Alcotest.check_raises "out-of-order feed rejected"
    (Invalid_argument "Cluster.feed: programs must be fed in corpus order")
    (fun () -> ignore (Cluster.feed st ~prog:2 []))

let test_strategy_names () =
  check Alcotest.string "df" "DF" (Cluster.strategy_name Cluster.Df);
  check Alcotest.string "ia" "DF-IA" (Cluster.strategy_name Cluster.Df_ia);
  check Alcotest.string "st" "DF-ST-2" (Cluster.strategy_name (Cluster.Df_st 2));
  check Alcotest.string "rand" "RAND" (Cluster.strategy_name (Cluster.Rand 5))

let suite =
  [
    Alcotest.test_case "dataflow: profiles cover corpus" `Quick
      test_profiles_cover_corpus;
    Alcotest.test_case "dataflow: protected flags shape" `Quick
      test_protected_flags_shape;
    Alcotest.test_case "dataflow: flows exist" `Quick test_total_flows_positive;
    Alcotest.test_case "dataflow: unprotected readers dropped" `Quick
      test_reader_filter_drops_unprotected;
    Alcotest.test_case "dataflow: ptype flow pairs programs" `Quick
      test_known_flow_pairs_exist;
    Alcotest.test_case "cluster: strategy count ordering" `Quick
      test_strategy_ordering;
    Alcotest.test_case "cluster: one rep per cluster" `Quick
      test_cluster_reps_match_count;
    Alcotest.test_case "cluster: deterministic reps" `Quick
      test_cluster_reps_sorted_deterministic;
    Alcotest.test_case "cluster: reps carry witness flows" `Quick
      test_cluster_flows_attached;
    Alcotest.test_case "cluster: DF counted not executed" `Quick
      test_df_has_no_reps;
    Alcotest.test_case "cluster: DF-ST refines DF-IA" `Quick test_st_refines_ia;
    Alcotest.test_case "rand: budget respected, no duplicates" `Quick
      test_rand_budget_respected;
    Alcotest.test_case "rand: deterministic per seed" `Quick
      test_rand_deterministic_per_seed;
    Alcotest.test_case "rand: indices in range" `Quick test_rand_in_range;
    Alcotest.test_case "cluster: stack context truncation" `Quick
      test_context_truncation;
    Alcotest.test_case "cluster: stack context edge cases" `Quick
      test_context_edges;
    Alcotest.test_case "rand: over-budget clamped to corpus pairs" `Quick
      test_rand_budget_clamped;
    Alcotest.test_case "rand: sparse budget delivered exactly" `Quick
      test_rand_sparse_budget_exact;
    Alcotest.test_case "cluster: df_total matches map scan" `Quick
      test_df_total_matches_map_scan;
    Alcotest.test_case "cluster: size distribution consistent" `Quick
      test_sizes_distribution_consistent;
    Alcotest.test_case "online: equals batch clustering" `Quick
      test_online_equals_batch;
    Alcotest.test_case "online: events track live table" `Quick
      test_online_events_track_live;
    Alcotest.test_case "online: a lower candidate fires Rep_changed" `Quick
      test_online_rep_changed;
    Alcotest.test_case "online: feed order enforced" `Quick
      test_online_feed_order_enforced;
    QCheck_alcotest.to_alcotest prop_online_equals_reference;
    QCheck_alcotest.to_alcotest prop_prepare_many_equals_one;
    Alcotest.test_case "cluster: strategy names" `Quick test_strategy_names;
  ]
