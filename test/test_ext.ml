(* Tests for the extensions: seed-call dependency selection (paper,
   section 5.3), report rendering, and the time-namespace / bounds-based
   detector (section 7 future work). *)

module K = Kit_kernel
module Seed_dep = Kit_spec.Seed_dep
module Spec = Kit_spec.Spec
module Render = Kit_report.Render
module Aggregate = Kit_report.Aggregate
module Diagnose = Kit_report.Diagnose
module Oracle = Kit_core.Oracle
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Bounds = Kit_trace.Bounds
module Ast = Kit_trace.Ast
module Report = Kit_detect.Report
module Testcase = Kit_gen.Testcase
module Program = Kit_abi.Program
module Sysno = Kit_abi.Sysno
module Syzlang = Kit_abi.Syzlang

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let p = Syzlang.parse

(* The calls of [prog] that depend on a [seed] call. *)
let dependent_indices prog ~seed =
  List.filter (Seed_dep.is_dependent prog ~seed)
    (List.init (Program.length prog) Fun.id)

let protected_indices = Test_spec.protected_indices

(* --- seed-call dependency selection ---------------------------------------- *)

let seed_open_proc_net (call : Program.call) =
  Sysno.equal call.Program.sysno Sysno.Open
  &&
  match call.Program.args with
  | Kit_abi.Value.Str path :: _ ->
    String.length path >= 10 && String.equal (String.sub path 0 10) "/proc/net/"
  | _ -> false

let test_seed_dep_closure () =
  let prog =
    p "r0 = getpid()\nr1 = open(\"/proc/net/ptype\")\nr2 = read(r1)\nr3 = fstat(r2)"
  in
  check (Alcotest.list Alcotest.int) "seed + dependents"
    [ 1; 2; 3 ]
    (dependent_indices prog ~seed:seed_open_proc_net)

let test_seed_dep_no_seed () =
  let prog = p "r0 = getpid()\nr1 = clock_gettime()" in
  check (Alcotest.list Alcotest.int) "empty closure" []
    (dependent_indices prog ~seed:seed_open_proc_net)

let test_seed_dep_transitive_only_via_refs () =
  let prog =
    p "r0 = open(\"/proc/net/ptype\")\nr1 = getpid()\nr2 = read(r0)"
  in
  check (Alcotest.list Alcotest.int) "unrelated call skipped" [ 0; 2 ]
    (dependent_indices prog ~seed:seed_open_proc_net)

let test_spec_with_seed_selector () =
  (* The base spec does not protect token calls; a seed selector on
     token_create pulls token_stat(ref) in through the dependency. *)
  let spec =
    { Spec.refined with
      Spec.seed_selectors = Sysno.Token_create :: Spec.refined.Spec.seed_selectors }
  in
  let prog = p "r0 = token_create()\nr1 = token_stat(r0)" in
  check (Alcotest.list Alcotest.int) "seeded selection" [ 0; 1 ]
    (protected_indices spec prog);
  check (Alcotest.list Alcotest.int) "without the seed" []
    (protected_indices Spec.refined prog)

(* --- render ------------------------------------------------------------------ *)

let sample_report () =
  { Report.testcase = { Testcase.sender = 0; receiver = 1; flow = None };
    sender = p "r0 = socket(3)";
    receiver = p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)";
    interfered = [ 1 ]; diffs = []; origin = Report.Sequential }

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_render_report () =
  let text =
    Render.groups
      (Aggregate.agg_rs [ Aggregate.key_report (sample_report ()) [] ])
  in
  check_bool "mentions programs" true (contains ~needle:"socket(3)" text);
  check_bool "mentions interfered calls" true (contains ~needle:"[1]" text)

let test_render_group () =
  let k =
    Aggregate.key_report (sample_report ())
      [ { Diagnose.sender_index = 0; receiver_index = 1 } ]
  in
  let groups = Aggregate.agg_rs [ k ] in
  let text = Render.groups groups in
  check_bool "group header" true (contains ~needle:"AGG-RS group" text);
  check_bool "culprit line" true (contains ~needle:"socket[AF_PACKET]" text)

(* --- time namespace + bounds-based detection ------------------------------------ *)

let test_timens_isolated_fixed () =
  let k = K.State.boot (K.Config.fixed ()) in
  let s = K.State.spawn_container k in
  let r = K.State.spawn_container k in
  let run pid text = K.Interp.run k ~pid (p text) in
  let _ = run s "r0 = clock_settime(5)" in
  let before = K.State.now k in
  let results = run r "r0 = clock_gettime()" in
  match List.rev results with
  | last :: _ ->
    check_bool "offset not visible across time ns" true
      (last.K.Interp.ret.K.Sysret.ret < before + 1_000_000)
  | [] -> Alcotest.fail "no results"

let test_timens_global_buggy () =
  let k = K.State.boot (K.Config.v5_13 ()) in
  let s = K.State.spawn_container k in
  let r = K.State.spawn_container k in
  let run pid text = K.Interp.run k ~pid (p text) in
  let _ = run s "r0 = clock_settime(5)" in
  let results = run r "r0 = clock_gettime()" in
  match List.rev results with
  | last :: _ ->
    check_bool "offset leaked across time ns (XT)" true
      (last.K.Interp.ret.K.Sysret.ret >= 5_000_000)
  | [] -> Alcotest.fail "no results"

let test_standard_kit_misses_timens () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let outcome =
    Runner.execute runner ~sender:(p "r0 = clock_settime(5)")
      ~receiver:(p "r0 = clock_gettime()")
  in
  check_bool "raw divergence exists" true (outcome.Runner.raw_diffs <> []);
  check_bool "masked away as non-deterministic" true
    (outcome.Runner.masked_diffs = [])

let test_bounds_detect_timens () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let violations =
    Runner.execute_bounds runner ~sender:(p "r0 = clock_settime(5)")
      ~receiver:(p "r0 = clock_gettime()")
  in
  check_bool "bound violation flagged" true (violations <> [])

let test_bounds_quiet_without_interference () =
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let violations =
    Runner.execute_bounds runner ~sender:(p "r0 = getpid()")
      ~receiver:(p "r0 = clock_gettime()\nr1 = open(\"/proc/uptime\")\nr2 = read(r1)")
  in
  check (Alcotest.list Alcotest.string) "no false bound violations" []
    (List.map (fun (v : Bounds.violation) -> v.Bounds.actual) violations)

let test_bounds_quiet_on_fixed_kernel () =
  let env = Env.create (K.Config.fixed ()) in
  let runner = Runner.create env in
  let violations =
    Runner.execute_bounds runner ~sender:(p "r0 = clock_settime(5)")
      ~receiver:(p "r0 = clock_gettime()")
  in
  check_int "fixed kernel clean" 0 (List.length violations)

(* The least an interval is widened by on each side. *)
let min_slack = 64

let test_bounds_learn_shapes () =
  let leaf v = Ast.node "trace" [ Ast.leaf "time" (string_of_int v) ] in
  let bounds = Bounds.learn (leaf 100) [ leaf 150; leaf 120 ] in
  match bounds.Bounds.children with
  | [ { Bounds.kind = Bounds.Interval (lo, hi); _ } ] ->
    check_bool "interval covers observations plus slack" true
      (lo <= 100 - min_slack && hi >= 150 + min_slack)
  | _ -> Alcotest.fail "expected an interval leaf"

let test_bounds_exact_leaves () =
  let t = Ast.node "trace" [ Ast.leaf "ret" "0" ] in
  let bounds = Bounds.learn t [ t; t ] in
  let bad = Ast.node "trace" [ Ast.leaf "ret" "1" ] in
  check_int "exact leaf enforced" 1 (List.length (Bounds.check bounds bad));
  check_int "self check clean" 0 (List.length (Bounds.check bounds t))

let test_bounds_shape_variation_unchecked () =
  let small = Ast.node "out" [ Ast.leaf "l0" "a" ] in
  let big = Ast.node "out" [ Ast.leaf "l0" "a"; Ast.leaf "l1" "b" ] in
  let bounds = Bounds.learn small [ big ] in
  check_int "varying shape unchecked" 0 (List.length (Bounds.check bounds big))

let test_bounds_still_catch_det_bugs () =
  (* Bounds mode subsumes the deterministic detector: bug #1 still
     shows, as an Exact/shape violation. *)
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let violations =
    Runner.execute_bounds runner ~sender:(p "r0 = socket(3)")
      ~receiver:(p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")
  in
  check_bool "ptype leak flagged in bounds mode" true (violations <> [])

let suite =
  [
    Alcotest.test_case "seed-dep: dependency closure" `Quick
      test_seed_dep_closure;
    Alcotest.test_case "seed-dep: no seed" `Quick test_seed_dep_no_seed;
    Alcotest.test_case "seed-dep: only via refs" `Quick
      test_seed_dep_transitive_only_via_refs;
    Alcotest.test_case "seed-dep: spec integration" `Quick
      test_spec_with_seed_selector;
    Alcotest.test_case "render: report text" `Quick test_render_report;
    Alcotest.test_case "render: group text" `Quick test_render_group;
    Alcotest.test_case "timens: isolated on fixed kernel" `Quick
      test_timens_isolated_fixed;
    Alcotest.test_case "timens: global offset on buggy kernel (XT)" `Quick
      test_timens_global_buggy;
    Alcotest.test_case "timens: standard KIT misses it" `Quick
      test_standard_kit_misses_timens;
    Alcotest.test_case "bounds: detects the time-ns bug" `Quick
      test_bounds_detect_timens;
    Alcotest.test_case "bounds: quiet without interference" `Quick
      test_bounds_quiet_without_interference;
    Alcotest.test_case "bounds: quiet on fixed kernel" `Quick
      test_bounds_quiet_on_fixed_kernel;
    Alcotest.test_case "bounds: interval learning" `Quick
      test_bounds_learn_shapes;
    Alcotest.test_case "bounds: exact leaves enforced" `Quick
      test_bounds_exact_leaves;
    Alcotest.test_case "bounds: shape variation unchecked" `Quick
      test_bounds_shape_variation_unchecked;
    Alcotest.test_case "bounds: deterministic bugs still caught" `Quick
      test_bounds_still_catch_det_bugs;
  ]
