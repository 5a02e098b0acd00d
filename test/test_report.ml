(* Tests for diagnosis (Algorithm 2), call signatures and report
   aggregation (AGG-R / AGG-RS). *)

module K = Kit_kernel
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Filter = Kit_detect.Filter
module Report = Kit_detect.Report
module Diagnose = Kit_report.Diagnose
module Signature = Kit_report.Signature
module Aggregate = Kit_report.Aggregate
module Spec = Kit_spec.Spec
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang
module Testcase = Kit_gen.Testcase

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let p = Syzlang.parse

(* --- Signature -------------------------------------------------------------- *)

let test_signature_socket_domain () =
  let prog = p "r0 = socket(3)" in
  check_string "domain detail" "socket[AF_PACKET]"
    (Signature.to_string (Signature.of_call prog 0))

let test_signature_read_with_producer () =
  let prog = p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  check_string "path flows through the fd" "read[/proc/net/ptype]"
    (Signature.to_string (Signature.of_call prog 1))

let test_signature_prio_mode () =
  let prog = p "r0 = getpriority(2, 1000)" in
  check_string "PRIO_USER" "getpriority[PRIO_USER]"
    (Signature.to_string (Signature.of_call prog 0))

let test_signature_sysctl_name () =
  let prog = p "r0 = sysctl_read(\"net/nf_conntrack_max\")" in
  check_string "sysctl detail" "sysctl_read[net/nf_conntrack_max]"
    (Signature.to_string (Signature.of_call prog 0))

let test_signature_bind_via_socket () =
  let prog = p "r0 = socket(4)\nr1 = bind(r0, 1003)" in
  check_string "producer rendered" "bind[AF_RDS]"
    (Signature.to_string (Signature.of_call prog 1))

let test_signature_out_of_range () =
  let prog = p "r0 = getpid()" in
  check_string "unknown" "?" (Signature.to_string (Signature.of_call prog 9))

(* --- Diagnose (Algorithm 2) --------------------------------------------------- *)

(* Synthetic interference: sender call [i] interferes with receiver call
   [f i] when present. The test function recomputes interference from the
   remaining sender calls. *)
let synthetic_test ~full_sender interference ~sender ~receiver:_ =
  let remaining = Program.calls sender in
  let full = Program.calls full_sender in
  (* A call of the original sender is "still present" if an equal call
     remains (synthetic senders have distinct calls). *)
  List.concat_map
    (fun (i, r) ->
      match List.nth_opt full i with
      | Some call when List.mem call remaining -> [ r ]
      | Some _ | None -> [])
    interference
  |> List.sort_uniq Int.compare

let test_diagnose_single_culprit () =
  let sender = p "r0 = getpid()\nr1 = socket(3)\nr2 = clock_gettime()" in
  let receiver = p "r0 = token_stat(1)" in
  let interference = [ (1, 0) ] in
  let pairs =
    Diagnose.culprits
      ~test:(synthetic_test ~full_sender:sender interference)
      ~sender ~receiver ~interfered:[ 0 ]
  in
  match pairs with
  | [ { Diagnose.sender_index = 1; receiver_index = 0 } ] -> ()
  | _ -> Alcotest.failf "unexpected pairs: %d" (List.length pairs)

let test_diagnose_multiple_culprits () =
  let sender = p "r0 = socket(1)\nr1 = socket(3)\nr2 = socket(5)" in
  let receiver = p "r0 = token_stat(1)\nr1 = token_stat(2)" in
  (* sender call 0 interferes with receiver 0; sender call 2 with 1. *)
  let interference = [ (0, 0); (2, 1) ] in
  let pairs =
    Diagnose.culprits
      ~test:(synthetic_test ~full_sender:sender interference)
      ~sender ~receiver ~interfered:[ 0; 1 ]
  in
  check_int "two pairs" 2 (List.length pairs);
  check_bool "pair (2,1) found" true
    (List.exists
       (fun pr -> pr.Diagnose.sender_index = 2 && pr.Diagnose.receiver_index = 1)
       pairs);
  check_bool "pair (0,0) found" true
    (List.exists
       (fun pr -> pr.Diagnose.sender_index = 0 && pr.Diagnose.receiver_index = 0)
       pairs)

let test_diagnose_picks_first_receiver_call () =
  (* One sender call interfering with a cascade of receiver calls must be
     paired with the first one only. *)
  let sender = p "r0 = socket(3)" in
  let receiver = p "r0 = token_stat(1)\nr1 = token_stat(2)\nr2 = token_stat(3)" in
  let interference = [ (0, 0); (0, 1); (0, 2) ] in
  let pairs =
    Diagnose.culprits
      ~test:(synthetic_test ~full_sender:sender interference)
      ~sender ~receiver ~interfered:[ 0; 1; 2 ]
  in
  match pairs with
  | [ { Diagnose.sender_index = 0; receiver_index = 0 } ] -> ()
  | _ -> Alcotest.fail "expected the first receiver call only"

let test_diagnose_end_to_end () =
  (* Real kernel: a three-call sender whose middle call is the culprit. *)
  let env = Env.create (K.Config.v5_13 ()) in
  let runner = Runner.create env in
  let sender = p "r0 = getpid()\nr1 = socket(3)\nr2 = getpid()" in
  let receiver = p "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  let test ~sender ~receiver =
    Filter.protected_interfered Spec.default receiver
      (Runner.test_interference runner ~sender ~receiver)
  in
  let pairs = Diagnose.culprits ~test ~sender ~receiver ~interfered:[ 1 ] in
  match pairs with
  | [ { Diagnose.sender_index = 1; receiver_index = 1 } ] -> ()
  | _ -> Alcotest.fail "expected the packet socket call as culprit"

let test_diagnose_empty_interference () =
  let sender = p "r0 = getpid()" in
  let receiver = p "r0 = getpid()" in
  let pairs =
    Diagnose.culprits
      ~test:(fun ~sender:_ ~receiver:_ -> [])
      ~sender ~receiver ~interfered:[]
  in
  check_int "no pairs" 0 (List.length pairs)

(* --- Aggregate ------------------------------------------------------------------ *)

let dummy_report sender_text receiver_text interfered =
  let sender = p sender_text in
  let receiver = p receiver_text in
  { Report.testcase = { Testcase.sender = 0; receiver = 0; flow = None };
    sender; receiver; interfered; diffs = []; origin = Report.Sequential }

let keyed sender_text receiver_text (s, r) =
  Aggregate.key_report
    (dummy_report sender_text receiver_text [ r ])
    [ { Diagnose.sender_index = s; receiver_index = r } ]

let test_agg_r_groups_by_receiver () =
  let k1 = keyed "r0 = socket(3)" "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" (0, 1) in
  let k2 = keyed "r0 = socket(3)\nr1 = getpid()" "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" (0, 1) in
  let k3 = keyed "r0 = socket(1)" "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" (0, 1) in
  let groups = Aggregate.agg_r [ k1; k2; k3 ] in
  check_int "two receiver groups" 2 (List.length groups)

let test_agg_rs_subdivides () =
  let k1 = keyed "r0 = socket(3)" "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" (0, 1) in
  let k2 = keyed "r0 = socket(1)" "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" (0, 1) in
  let agg_r = Aggregate.agg_r [ k1; k2 ] in
  let agg_rs = Aggregate.agg_rs [ k1; k2 ] in
  check_int "one AGG-R group" 1 (List.length agg_r);
  check_int "two AGG-RS groups" 2 (List.length agg_rs)

let test_agg_members_partition () =
  let ks =
    [ keyed "r0 = socket(3)" "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" (0, 1);
      keyed "r0 = socket(1)" "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" (0, 1);
      keyed "r0 = socket(1)" "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" (0, 1) ]
  in
  let total groups =
    List.fold_left
      (fun acc (g : Aggregate.group) -> acc + List.length g.Aggregate.members)
      0 groups
  in
  check_int "AGG-R partitions" (List.length ks) (total (Aggregate.agg_r ks));
  check_int "AGG-RS partitions" (List.length ks) (total (Aggregate.agg_rs ks))

let test_key_report_without_pairs () =
  let report = dummy_report "r0 = socket(3)" "r0 = gethostname()" [ 0 ] in
  let k = Aggregate.key_report report [] in
  check_string "falls back to first interfered call" "gethostname"
    (Signature.to_string k.Aggregate.receiver_sig);
  check_string "unknown sender" "?" (Signature.to_string k.Aggregate.sender_sig)

let suite =
  [
    Alcotest.test_case "signature: socket domain" `Quick
      test_signature_socket_domain;
    Alcotest.test_case "signature: read with producer path" `Quick
      test_signature_read_with_producer;
    Alcotest.test_case "signature: priority mode" `Quick test_signature_prio_mode;
    Alcotest.test_case "signature: sysctl name" `Quick test_signature_sysctl_name;
    Alcotest.test_case "signature: bind via socket" `Quick
      test_signature_bind_via_socket;
    Alcotest.test_case "signature: out of range" `Quick
      test_signature_out_of_range;
    Alcotest.test_case "diagnose: single culprit" `Quick
      test_diagnose_single_culprit;
    Alcotest.test_case "diagnose: multiple culprits" `Quick
      test_diagnose_multiple_culprits;
    Alcotest.test_case "diagnose: first receiver call wins" `Quick
      test_diagnose_picks_first_receiver_call;
    Alcotest.test_case "diagnose: end-to-end on the kernel" `Quick
      test_diagnose_end_to_end;
    Alcotest.test_case "diagnose: empty interference" `Quick
      test_diagnose_empty_interference;
    Alcotest.test_case "aggregate: AGG-R groups by receiver" `Quick
      test_agg_r_groups_by_receiver;
    Alcotest.test_case "aggregate: AGG-RS subdivides" `Quick
      test_agg_rs_subdivides;
    Alcotest.test_case "aggregate: members partition" `Quick
      test_agg_members_partition;
    Alcotest.test_case "aggregate: report without pairs" `Quick
      test_key_report_without_pairs;
  ]
