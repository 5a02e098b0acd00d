(* Tests for the partial specification: fd-type rules, checker functions
   and per-call protected-resource classification. *)

module Spec = Kit_spec.Spec
module Checker = Kit_spec.Checker
module Fdtype = Kit_abi.Fdtype
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

(* The calls of [prog] the spec marks as accessing protected resources. *)
let protected_indices spec prog =
  let types = Kit_abi.Program.result_types prog in
  List.filter (Spec.call_protected spec prog types)
    (List.init (Kit_abi.Program.length prog) Fun.id)

let protected_of text = protected_indices Spec.default (Syzlang.parse text)

let test_socket_calls_protected () =
  check (Alcotest.list Alcotest.int) "socket returns protected fd" [ 0; 1 ]
    (protected_of "r0 = socket(1)\nr1 = get_cookie(r0)")

let test_procfs_net_read_protected () =
  check (Alcotest.list Alcotest.int) "open+read protected" [ 0; 1 ]
    (protected_of "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)")

let test_clock_gettime_unprotected () =
  check (Alcotest.list Alcotest.int) "timing call not protected" []
    (protected_of "r0 = clock_gettime()")

let test_getpid_unprotected () =
  check (Alcotest.list Alcotest.int) "getpid not protected" []
    (protected_of "r0 = getpid()")

let test_somaxconn_unprotected () =
  check (Alcotest.list Alcotest.int) "somaxconn left unprotected" []
    (protected_of "r0 = sysctl_read(\"net/somaxconn\")")

let test_conntrack_sysctl_protected () =
  check (Alcotest.list Alcotest.int) "conntrack sysctl checker" [ 0 ]
    (protected_of "r0 = sysctl_read(\"net/nf_conntrack_max\")")

let test_prio_user_checker () =
  check (Alcotest.list Alcotest.int) "PRIO_USER protected" [ 0 ]
    (protected_of "r0 = getpriority(2, 1000)");
  check (Alcotest.list Alcotest.int) "PRIO_PROCESS not protected" []
    (protected_of "r0 = getpriority(0, 1000)")

let test_hostname_checker () =
  check (Alcotest.list Alcotest.int) "gethostname protected" [ 0 ]
    (protected_of "r0 = gethostname()");
  check (Alcotest.list Alcotest.int) "sethostname protected" [ 0 ]
    (protected_of "r0 = sethostname(\"h\")")

let test_mount_path_checker () =
  check (Alcotest.list Alcotest.int) "io_uring on /tmp protected" [ 0 ]
    (protected_of "r0 = io_uring_read(\"/tmp/kit0\")")

let test_token_unprotected () =
  check (Alcotest.list Alcotest.int) "token calls not protected" []
    (protected_of "r0 = token_stat(7)")

let test_sock_diag_unprotected () =
  check (Alcotest.list Alcotest.int) "sock_diag not protected" []
    (protected_of "r0 = sock_diag(3)")

let test_default_overapproximates_proc_misc () =
  check (Alcotest.list Alcotest.int) "crypto read counted (FP source)" [ 0; 1 ]
    (protected_of "r0 = open(\"/proc/crypto\")\nr1 = read(r0)")

let test_refined_drops_proc_misc () =
  let p = Syzlang.parse "r0 = open(\"/proc/crypto\")\nr1 = read(r0)" in
  check (Alcotest.list Alcotest.int) "refined spec excludes crypto" []
    (protected_indices Spec.refined p);
  let net = Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  check (Alcotest.list Alcotest.int) "refined spec keeps /proc/net" [ 0; 1 ]
    (protected_indices Spec.refined net)

let test_uses_protected_via_ref () =
  check (Alcotest.list Alcotest.int) "bind via rds fd" [ 0; 1 ]
    (protected_of "r0 = socket(4)\nr1 = bind(r0, 1000)")

let test_rule_counts () =
  let fd_rules = List.length Spec.default.Spec.protected_fd_types
  and checkers = List.length Spec.default.Spec.checkers in
  check_bool "several fd-type rules" true (fd_rules >= 10);
  check_int "checker functions" (List.length Checker.all) checkers

let test_checker_ids_unique () =
  let ids = List.map Checker.id Checker.all in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_out_of_range_index () =
  let p = Syzlang.parse "r0 = getpid()" in
  let types = Program.result_types p in
  check_bool "index out of range is unprotected" false
    (Spec.call_protected Spec.default p types 5)

let suite =
  [
    Alcotest.test_case "spec: sockets protected" `Quick test_socket_calls_protected;
    Alcotest.test_case "spec: /proc/net reads protected" `Quick
      test_procfs_net_read_protected;
    Alcotest.test_case "spec: clock_gettime unprotected" `Quick
      test_clock_gettime_unprotected;
    Alcotest.test_case "spec: getpid unprotected" `Quick test_getpid_unprotected;
    Alcotest.test_case "spec: somaxconn unprotected" `Quick
      test_somaxconn_unprotected;
    Alcotest.test_case "spec: conntrack sysctl checker" `Quick
      test_conntrack_sysctl_protected;
    Alcotest.test_case "spec: PRIO_USER checker" `Quick test_prio_user_checker;
    Alcotest.test_case "spec: hostname checker" `Quick test_hostname_checker;
    Alcotest.test_case "spec: mount path checker" `Quick test_mount_path_checker;
    Alcotest.test_case "spec: tokens unprotected" `Quick test_token_unprotected;
    Alcotest.test_case "spec: sock_diag unprotected" `Quick
      test_sock_diag_unprotected;
    Alcotest.test_case "spec: default over-approximates /proc (FP source)"
      `Quick test_default_overapproximates_proc_misc;
    Alcotest.test_case "spec: refined drops /proc over-approximation" `Quick
      test_refined_drops_proc_misc;
    Alcotest.test_case "spec: protection via resource refs" `Quick
      test_uses_protected_via_ref;
    Alcotest.test_case "spec: rule counts" `Quick test_rule_counts;
    Alcotest.test_case "spec: checker ids unique" `Quick test_checker_ids_unique;
    Alcotest.test_case "spec: out-of-range index" `Quick test_out_of_range_index;
  ]
