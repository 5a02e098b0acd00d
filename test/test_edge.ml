(* Edge cases and failure injection across the pipeline: malformed
   inputs, boundary sizes, snapshot layering, cascading failures and
   degenerate configurations. *)

module K = Kit_kernel
module Program = Kit_abi.Program
module Value = Kit_abi.Value
module Sysno = Kit_abi.Sysno
module Syzlang = Kit_abi.Syzlang
module Corpus = Kit_abi.Corpus
module Spec = Kit_spec.Spec
module Cluster = Kit_gen.Cluster
module Dataflow = Kit_gen.Dataflow
module Campaign = Kit_core.Campaign
module Known_bugs = Kit_core.Known_bugs
module Pool = Kit_serve.Pool
module Proto = Kit_serve.Proto
module Oracle = Kit_core.Oracle
module Signature = Kit_report.Signature
module Bounds = Kit_trace.Bounds
module Ast = Kit_trace.Ast
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let p = Syzlang.parse

(* --- malformed and degenerate programs ------------------------------------- *)

let test_empty_program () =
  let prog = p "" in
  check_int "zero calls" 0 (Program.length prog);
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  check_int "runs to completion" 0 (List.length (K.Interp.run k ~pid prog))

let test_out_of_range_ref () =
  (* A reference to a call index that does not exist degrades to an
     invalid fd, not a crash. *)
  let prog =
    Program.make
      [ { Program.sysno = Sysno.Get_cookie; args = [ Value.Ref 99 ] } ]
  in
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  match K.Interp.run k ~pid prog with
  | [ r ] ->
    check_bool "EBADF" true
      (match r.K.Interp.ret.K.Sysret.err with
      | Some K.Errno.EBADF -> true
      | Some _ | None -> false)
  | _ -> Alcotest.fail "expected one result"

let test_ref_argument_rejected_by_kernel () =
  (* The syscall layer itself refuses unresolved references. *)
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  let ret = K.Syscalls.exec k ~pid Sysno.Socket [ Value.Ref 0 ] in
  check_bool "EINVAL" true
    (match ret.K.Sysret.err with
    | Some K.Errno.EINVAL -> true
    | Some _ | None -> false)

let test_string_where_int_expected () =
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  let ret = K.Syscalls.exec k ~pid Sysno.Socket [ Value.Str "tcp" ] in
  check_bool "EINVAL" true (Option.is_some ret.K.Sysret.err)

let test_unknown_pid_raises () =
  let k = K.State.boot (K.Config.v5_13 ()) in
  check_bool "harness bug surfaces" true
    (try
       ignore (K.Interp.run k ~pid:424242 (p "r0 = gethostname()"));
       false
     with Invalid_argument _ -> true)

(* --- snapshot layering -------------------------------------------------------- *)

let test_snapshot_layering () =
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  let run text = K.Interp.run k ~pid (p text) in
  let snap0 = K.State.snapshot k in
  let _ = run "r0 = sethostname(\"one\")" in
  let snap1 = K.State.snapshot k in
  let _ = run "r0 = sethostname(\"two\")" in
  let hostname () =
    match List.rev (run "r0 = gethostname()") with
    | last :: _ -> (
      match last.K.Interp.ret.K.Sysret.out with
      | K.Sysret.P_str s -> s
      | _ -> "?")
    | [] -> "?"
  in
  check_string "latest state" "two" (hostname ());
  K.State.restore k snap1;
  check_string "middle snapshot" "one" (hostname ());
  K.State.restore k snap0;
  check_string "oldest snapshot" "(none)" (hostname ());
  K.State.restore k snap1;
  check_string "snapshots reusable out of order" "one" (hostname ())

(* --- corpus boundaries ---------------------------------------------------------- *)

let test_corpus_size_zero () =
  check_int "empty corpus" 0 (List.length (Corpus.generate ~seed:1 ~size:0))

let test_corpus_size_one () =
  match Corpus.generate ~seed:1 ~size:1 with
  | [ prog ] -> check_bool "non-empty program" true (Program.length prog > 0)
  | l -> Alcotest.failf "expected one program, got %d" (List.length l)

(* --- clustering boundaries ------------------------------------------------------- *)

let test_cluster_empty_map () =
  let map = Kit_profile.Accessmap.create () in
  let result = Cluster.run Cluster.Df_ia ~corpus_size:4 map in
  check_int "no clusters" 0 result.Cluster.clusters;
  check_int "no flows" 0 (Dataflow.total_flows map)

let test_rand_budget_exceeds_pairs () =
  let map = Kit_profile.Accessmap.create () in
  (* corpus of 2 programs -> at most 4 distinct pairs *)
  let result = Cluster.run (Cluster.Rand 1000) ~corpus_size:2 map in
  check_bool "bounded by the pair universe" true
    (List.length result.Cluster.reps <= 4)

let test_df_st_zero_depth_equals_ia () =
  (* DF-ST with depth 0 adds no context and must match DF-IA. *)
  let corpus = Corpus.generate ~seed:7 ~size:48 in
  let profiles =
    Dataflow.profile_corpus (K.Config.v5_13 ()) Spec.default corpus
  in
  let map = Dataflow.build_map profiles in
  let ia = Cluster.run Cluster.Df_ia ~corpus_size:48 map in
  let st0 = Cluster.run (Cluster.Df_st 0) ~corpus_size:48 map in
  check_int "same cluster count" ia.Cluster.clusters st0.Cluster.clusters

(* --- campaign degenerate configurations ------------------------------------------- *)

let test_campaign_without_diagnosis () =
  let c =
    Campaign.run
      { Campaign.default_options with
        Campaign.corpus_size = 64;
        diagnose = false }
  in
  check_int "no keyed reports" 0 (List.length c.Campaign.keyed);
  check_int "no groups" 0 (List.length c.Campaign.agg_rs);
  check_bool "raw reports still collected" true (c.Campaign.reports <> [])

let test_campaign_tiny_corpus () =
  let c =
    Campaign.run { Campaign.default_options with Campaign.corpus_size = 4 }
  in
  check_bool "pipeline survives a tiny corpus" true (c.Campaign.executions >= 0)

let test_more_workers_than_cases () =
  (* Idle workers change nothing: more domains than representatives
     leaves some domain slices empty, and more pool processes than
     representatives leaves some workers without a job. *)
  let options =
    { Campaign.default_options with
      Campaign.corpus_size = 16;
      strategy = Cluster.Rand 4 }
  in
  let single = Campaign.run options in
  let n_cases = List.length single.Campaign.generation.Cluster.reps in
  let domains = Campaign.run { options with Campaign.domains = n_cases + 2 } in
  let pool =
    let prepared = Campaign.prepare options in
    Campaign.drive
      ~executor:
        (Pool.executor { Pool.default_config with Pool.procs = n_cases + 1 })
      (Campaign.start prepared (Campaign.generate_prepared prepared))
  in
  check_string "domains summary" (Proto.summary single) (Proto.summary domains);
  check_string "pool summary" (Proto.summary single) (Proto.summary pool)

(* --- known bugs under the refined spec ---------------------------------------------- *)

let test_known_bugs_with_refined_spec () =
  let outcomes = Known_bugs.reproduce_all ~spec:Spec.refined () in
  check_int "still 5/7" 5 (Known_bugs.detected_count outcomes);
  check_bool "still as expected" true
    (List.for_all (fun o -> o.Known_bugs.as_expected) outcomes)

(* --- attribution edges ---------------------------------------------------------------- *)

let test_oracle_b5_via_close () =
  let got =
    Test_core.attribute
      ~sender:{ Signature.name = "close"; details = [ "AF_INET_TCP" ] }
      ~receiver:{ Signature.name = "read"; details = [ "/proc/net/sockstat" ] }
  in
  check_bool "close decrements the counter" true
    (got = Oracle.Bug K.Bugs.B5_sockstat_tcp)

let test_signature_int_fd_no_producer () =
  let prog = p "r0 = read(5)" in
  check_string "no producer detail" "read"
    (Signature.to_string (Signature.of_call prog 0))

(* --- bounds edges ----------------------------------------------------------------------- *)

let test_bounds_negative_interval () =
  let leaf v = Ast.node "t" [ Ast.leaf "x" (string_of_int v) ] in
  let bounds = Bounds.learn (leaf (-50)) [ leaf (-10) ] in
  match bounds.Bounds.children with
  | [ { Bounds.kind = Bounds.Interval (lo, hi); _ } ] ->
    check_bool "covers negatives" true (lo < -50 && hi > -10)
  | _ -> Alcotest.fail "expected interval"

let test_bounds_non_numeric_variation () =
  let leaf v = Ast.node "t" [ Ast.leaf "x" v ] in
  let bounds = Bounds.learn (leaf "alpha") [ leaf "beta" ] in
  match bounds.Bounds.children with
  | [ { Bounds.kind = Bounds.Unchecked; _ } ] -> ()
  | _ -> Alcotest.fail "expected unchecked"

let test_runner_custom_rerun_parameters () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create ~reruns:5 ~rerun_delta:911 env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = getpid()")
      ~receiver:(p "r0 = clock_gettime()")
  in
  check_bool "still masked with custom parameters" true
    (outcome.Runner.masked_diffs = [])

(* --- kernel misc ------------------------------------------------------------------------ *)

let test_errno_codes_distinct () =
  let all =
    [ K.Errno.EPERM; K.Errno.ENOENT; K.Errno.EBADF; K.Errno.EEXIST;
      K.Errno.EINVAL; K.Errno.ENFILE; K.Errno.ENOSYS; K.Errno.EADDRINUSE;
      K.Errno.EOPNOTSUPP; K.Errno.EACCES ]
  in
  let codes = List.map K.Errno.to_int all in
  check_int "distinct codes" (List.length codes)
    (List.length (List.sort_uniq Int.compare codes))

let test_heap_cell_count_grows () =
  let heap = K.Heap.create () in
  let before = List.length (K.Heap.vars heap) in
  let _ = K.Var.alloc heap ~name:"x" 0 in
  check_int "registered" (before + 1) (List.length (K.Heap.vars heap))

let test_var_metadata () =
  let heap = K.Heap.create () in
  ignore (K.Var.alloc heap ~name:"meta" ~width:4 ~instrumented:false 0 : int K.Var.t);
  match K.Heap.vars heap with
  | [ v ] ->
    check_string "name" "meta" v.K.Heap.v_name;
    check_int "width" 4 v.K.Heap.v_width;
    check_bool "instrumented" false v.K.Heap.v_instrumented
  | vars -> Alcotest.failf "%d vars registered" (List.length vars)

let test_creat_on_proc_rejected () =
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  match List.rev (K.Interp.run k ~pid (p "r0 = creat(\"/proc/net/new\")")) with
  | last :: _ ->
    check_bool "EACCES" true
      (match last.K.Interp.ret.K.Sysret.err with
      | Some K.Errno.EACCES -> true
      | Some _ | None -> false)
  | [] -> Alcotest.fail "no result"

let suite =
  [
    Alcotest.test_case "edge: empty program" `Quick test_empty_program;
    Alcotest.test_case "edge: out-of-range resource ref" `Quick
      test_out_of_range_ref;
    Alcotest.test_case "edge: unresolved ref rejected by kernel" `Quick
      test_ref_argument_rejected_by_kernel;
    Alcotest.test_case "edge: string where int expected" `Quick
      test_string_where_int_expected;
    Alcotest.test_case "edge: unknown pid surfaces as harness bug" `Quick
      test_unknown_pid_raises;
    Alcotest.test_case "edge: snapshot layering" `Quick test_snapshot_layering;
    Alcotest.test_case "edge: corpus size zero" `Quick test_corpus_size_zero;
    Alcotest.test_case "edge: corpus size one" `Quick test_corpus_size_one;
    Alcotest.test_case "edge: cluster empty map" `Quick test_cluster_empty_map;
    Alcotest.test_case "edge: RAND budget exceeds pair universe" `Quick
      test_rand_budget_exceeds_pairs;
    Alcotest.test_case "edge: DF-ST-0 equals DF-IA" `Quick
      test_df_st_zero_depth_equals_ia;
    Alcotest.test_case "edge: campaign without diagnosis" `Slow
      test_campaign_without_diagnosis;
    Alcotest.test_case "edge: campaign with tiny corpus" `Quick
      test_campaign_tiny_corpus;
    Alcotest.test_case "edge: more workers than test cases" `Quick
      test_more_workers_than_cases;
    Alcotest.test_case "edge: known bugs under refined spec" `Slow
      test_known_bugs_with_refined_spec;
    Alcotest.test_case "edge: oracle B5 via close" `Quick test_oracle_b5_via_close;
    Alcotest.test_case "edge: signature with raw int fd" `Quick
      test_signature_int_fd_no_producer;
    Alcotest.test_case "edge: bounds with negative values" `Quick
      test_bounds_negative_interval;
    Alcotest.test_case "edge: bounds with non-numeric variation" `Quick
      test_bounds_non_numeric_variation;
    Alcotest.test_case "edge: custom rerun parameters" `Quick
      test_runner_custom_rerun_parameters;
    Alcotest.test_case "edge: errno codes distinct" `Quick
      test_errno_codes_distinct;
    Alcotest.test_case "edge: heap cell registration" `Quick
      test_heap_cell_count_grows;
    Alcotest.test_case "edge: var metadata" `Quick test_var_metadata;
    Alcotest.test_case "edge: creat on /proc rejected" `Quick
      test_creat_on_proc_rejected;
  ]
