(* Tests for the ABI library: syscall identifiers, values, programs, the
   syzlang codec, descriptors and the corpus generator. *)

module Sysno = Kit_abi.Sysno
module Value = Kit_abi.Value
module Consts = Kit_abi.Consts
module Fdtype = Kit_abi.Fdtype
module Program = Kit_abi.Program
module Syzlang = Kit_abi.Syzlang
module Descriptor = Kit_abi.Descriptor
module Corpus = Kit_abi.Corpus

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* --- Sysno ------------------------------------------------------------- *)

let test_sysno_roundtrip () =
  List.iter
    (fun s ->
      match Sysno.of_string (Sysno.to_string s) with
      | Some s' -> check_bool (Sysno.to_string s) true (Sysno.equal s s')
      | None -> Alcotest.failf "of_string failed for %s" (Sysno.to_string s))
    Sysno.all

let test_sysno_unknown () =
  check_bool "unknown name" true (Option.is_none (Sysno.of_string "frobnicate"))

let test_sysno_names_unique () =
  let names = List.map Sysno.to_string Sysno.all in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* --- Value ------------------------------------------------------------- *)

let test_value_equal () =
  check_bool "int eq" true (Value.equal (Value.Int 3) (Value.Int 3));
  check_bool "int neq" false (Value.equal (Value.Int 3) (Value.Int 4));
  check_bool "kind neq" false (Value.equal (Value.Int 3) (Value.Ref 3));
  check_bool "str eq" true (Value.equal (Value.Str "a") (Value.Str "a"))

let test_value_print () =
  check_string "ref" "r2" (Value.to_string (Value.Ref 2));
  check_string "int" "7" (Value.to_string (Value.Int 7));
  check_string "str" "\"x\"" (Value.to_string (Value.Str "x"))

(* [to_string] writes [pp]'s bytes without a formatter: every shape,
   both int extremes, and strings of arbitrary bytes — quotes,
   backslashes, control bytes and bytes >= 0x80. *)
let gen_value =
  let open QCheck.Gen in
  let int_ = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
  let awkward =
    oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\127'; '\128'; '\255'; 'a' ]
  in
  oneof
    [ map (fun n -> Value.Int n) int_;
      map (fun i -> Value.Ref i) int_;
      map (fun s -> Value.Str s) (string_size ~gen:char (int_bound 40));
      map (fun s -> Value.Str s) (string_size ~gen:awkward (int_bound 12)) ]

let prop_value_to_string_matches_pp =
  QCheck.Test.make ~name:"value: to_string = pp, byte for byte" ~count:1000
    (QCheck.make ~print:(Fmt.str "%a" Value.pp) gen_value)
    (fun v -> Value.to_string v = Fmt.str "%a" Value.pp v)

(* --- Fdtype ------------------------------------------------------------ *)

let test_fdtype_of_domain () =
  check_bool "tcp" true
    (Fdtype.of_socket_domain Consts.dom_tcp = Some Fdtype.Sock_tcp);
  check_bool "packet" true
    (Fdtype.of_socket_domain Consts.dom_packet = Some Fdtype.Sock_packet);
  check_bool "bogus" true (Fdtype.of_socket_domain 999 = None)

let test_fdtype_of_path () =
  check_bool "proc net" true
    (Fdtype.of_path "/proc/net/ptype" = Some Fdtype.Procfs_net);
  check_bool "proc misc" true
    (Fdtype.of_path "/proc/crypto" = Some Fdtype.Procfs_misc);
  check_bool "tmp" true (Fdtype.of_path "/tmp/f" = Some Fdtype.Tmpfile);
  check_bool "other" true (Fdtype.of_path "/etc/passwd" = None)

let test_fdtype_names_unique () =
  let all =
    [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_packet; Fdtype.Sock_rds;
      Fdtype.Sock_sctp; Fdtype.Sock_unix; Fdtype.Sock_alg; Fdtype.Sock_uevent;
      Fdtype.Sock_inet6; Fdtype.Procfs_net; Fdtype.Procfs_misc;
      Fdtype.Tmpfile; Fdtype.Msgqid; Fdtype.Token ]
  in
  let names = List.map Fdtype.to_string all in
  check_int "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* --- Program ------------------------------------------------------------ *)

let prog_of_text = Syzlang.parse

let test_program_result_types () =
  let p = prog_of_text "r0 = socket(1)\nr1 = open(\"/proc/net/ptype\")\nr2 = read(r1)" in
  let types = Program.result_types p in
  check_bool "socket tcp" true (types.(0) = Some Fdtype.Sock_tcp);
  check_bool "open procfs" true (types.(1) = Some Fdtype.Procfs_net);
  check_bool "read none" true (types.(2) = None)

let test_program_uses_types () =
  let p = prog_of_text "r0 = socket(4)\nr1 = bind(r0, 1000)" in
  let types = Program.result_types p in
  match Program.nth p 1 with
  | None -> Alcotest.fail "missing call"
  | Some bind ->
    check_bool "bind uses rds sock" true
      (Program.uses_types types bind = [ Fdtype.Sock_rds ])

let test_program_remove_call_shifts_refs () =
  let p = prog_of_text "r0 = socket(1)\nr1 = socket(2)\nr2 = bind(r1, 7)" in
  let p' = Program.remove_call p 0 in
  check_int "length" 2 (Program.length p');
  match Program.nth p' 1 with
  | Some { Program.args = [ Value.Ref 0; Value.Int 7 ]; _ } -> ()
  | Some c -> Alcotest.failf "unexpected call %s" (Fmt.str "%a" Program.pp_call c)
  | None -> Alcotest.fail "missing call"

let test_program_remove_call_invalidates_refs () =
  let p = prog_of_text "r0 = socket(1)\nr1 = bind(r0, 7)" in
  let p' = Program.remove_call p 0 in
  match Program.nth p' 0 with
  | Some { Program.args = [ Value.Int -1; Value.Int 7 ]; _ } -> ()
  | Some c -> Alcotest.failf "unexpected call %s" (Fmt.str "%a" Program.pp_call c)
  | None -> Alcotest.fail "missing call"

let test_program_remove_last () =
  let p = prog_of_text "r0 = socket(1)\nr1 = getpid()" in
  let p' = Program.remove_call p 1 in
  check_int "length" 1 (Program.length p');
  check_bool "first call intact" true
    (match Program.nth p' 0 with
    | Some { Program.sysno = Sysno.Socket; _ } -> true
    | Some _ | None -> false)

let test_program_append_shifts_refs () =
  let a = prog_of_text "r0 = socket(1)" in
  let b = prog_of_text "r0 = socket(2)\nr1 = bind(r0, 9)" in
  let joined = Program.append a b in
  check_int "length" 3 (Program.length joined);
  match Program.nth joined 2 with
  | Some { Program.args = [ Value.Ref 1; Value.Int 9 ]; _ } -> ()
  | Some c -> Alcotest.failf "unexpected call %s" (Fmt.str "%a" Program.pp_call c)
  | None -> Alcotest.fail "missing call"

let test_program_hash_stable () =
  let p1 = prog_of_text "r0 = socket(1)\nr1 = getpid()" in
  let p2 = prog_of_text "r0 = socket(1)\nr1 = getpid()" in
  check_int "equal hash" (Program.hash p1) (Program.hash p2);
  check_bool "equal" true (Program.equal p1 p2)

(* --- Syzlang ------------------------------------------------------------ *)

let test_syzlang_parse_basic () =
  let p = Syzlang.parse "r0 = socket(3)" in
  check_int "one call" 1 (Program.length p);
  match Program.nth p 0 with
  | Some { Program.sysno = Sysno.Socket; args = [ Value.Int 3 ] } -> ()
  | Some _ | None -> Alcotest.fail "bad parse"

let test_syzlang_parse_string_args () =
  let p = Syzlang.parse "r0 = open(\"/proc/net/ptype\")" in
  match Program.nth p 0 with
  | Some { Program.args = [ Value.Str "/proc/net/ptype" ]; _ } -> ()
  | Some _ | None -> Alcotest.fail "bad string arg"

let test_syzlang_parse_refs () =
  let p = Syzlang.parse "r0 = socket(1)\nr1 = send(r0, 8, 0)" in
  match Program.nth p 1 with
  | Some { Program.args = [ Value.Ref 0; Value.Int 8; Value.Int 0 ]; _ } -> ()
  | Some _ | None -> Alcotest.fail "bad ref arg"

let test_syzlang_comments_and_blanks () =
  let p = Syzlang.parse "# a comment\n\nr0 = getpid()\n" in
  check_int "one call" 1 (Program.length p)

let test_syzlang_prefixless_r_syscall_with_eq () =
  (* 'read' starts with 'r'; an '=' inside a string argument of a
     prefix-less line must not be mistaken for the result assignment. *)
  let p = Syzlang.parse "msgsnd(3, \"a=b\")" in
  (match Program.nth p 0 with
  | Some { Program.sysno = Sysno.Msgsnd; args = [ Value.Int 3; Value.Str "a=b" ] } -> ()
  | Some _ | None -> Alcotest.fail "prefix-less '=' mishandled");
  let q = Syzlang.parse "read(5)" in
  check_bool "prefix-less read parses" true
    (match Program.nth q 0 with
    | Some { Program.sysno = Sysno.Read; args = [ Value.Int 5 ] } -> true
    | Some _ | None -> false)

let test_program_hash_no_prefix_collision () =
  (* Hashtbl.hash's 10-node limit used to collide programs sharing a
     prefix; the mask cache keys on this hash. *)
  let base = "r0 = socket(1)\nr1 = bind(r0, 1000)\nr2 = send(r0, 8, 0)\nr3 = send(r0, 9, 0)\nr4 = send(r0, 10, 0)\n" in
  let a = Syzlang.parse (base ^ "r5 = getpid()") in
  let b = Syzlang.parse (base ^ "r5 = clock_gettime()") in
  check_bool "distinct tails hash differently" false
    (Program.hash a = Program.hash b)

let test_syzlang_string_with_comma () =
  let p = Syzlang.parse "r0 = msgsnd(3, \"a,b\")" in
  match Program.nth p 0 with
  | Some { Program.args = [ Value.Int 3; Value.Str "a,b" ]; _ } -> ()
  | Some _ | None -> Alcotest.fail "comma inside string mishandled"

let rejected text =
  match Syzlang.parse text with
  | _ -> false
  | exception Syzlang.Parse_error _ -> true

let test_syzlang_rejects_unknown () =
  check_bool "unknown call" true (rejected "r0 = frobnicate(1)")

let test_syzlang_rejects_garbage () =
  check_bool "no parens" true (rejected "socket 3");
  check_bool "bad int" true (rejected "r0 = socket(x)")

let test_syzlang_roundtrip_seeds () =
  List.iter
    (fun prog ->
      let text = Program.to_string prog in
      let prog' = Syzlang.parse text in
      check_bool "roundtrip" true (Program.equal prog prog'))
    (Corpus.generate ~seed:3 ~size:64)

(* Random program generator for property tests. *)
let arbitrary_program =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, size) ->
          match Corpus.generate ~seed ~size:(1 + (size mod 6)) with
          | p :: _ -> p
          | [] -> Kit_abi.Program.make [])
        (pair small_nat small_nat))
  in
  QCheck.make ~print:Program.to_string gen

let prop_syzlang_roundtrip =
  QCheck.Test.make ~name:"syzlang print/parse roundtrip" ~count:200
    arbitrary_program (fun p ->
      match Syzlang.parse (Program.to_string p) with
      | p' -> Program.equal p p'
      | exception Syzlang.Parse_error _ -> false)

let prop_remove_call_length =
  QCheck.Test.make ~name:"remove_call shrinks length by one" ~count:200
    arbitrary_program (fun p ->
      let n = Program.length p in
      n = 0
      || Program.length (Program.remove_call p (n - 1)) = n - 1
         && Program.length (Program.remove_call p 0) = n - 1)

let prop_result_types_length =
  QCheck.Test.make ~name:"result_types covers every call" ~count:200
    arbitrary_program (fun p ->
      Array.length (Program.result_types p) >= Program.length p)

(* --- Descriptor / Corpus ------------------------------------------------- *)

let test_descriptor_all_syscalls () =
  List.iter
    (fun s ->
      check_bool ("descriptor of " ^ Sysno.to_string s) true
        (Sysno.equal s (Descriptor.describe s).Descriptor.sysno))
    Sysno.all

let test_descriptor_random_args_well_typed () =
  let rng = Random.State.make [| 1 |] in
  List.iter
    (fun (d : Descriptor.t) ->
      let args =
        List.map
          (Descriptor.random_arg rng ~resolve_fd:(fun _ -> Some 0))
          d.Descriptor.args
      in
      check_int
        (Sysno.to_string d.Descriptor.sysno)
        (List.length d.Descriptor.args)
        (List.length args))
    (List.map Descriptor.describe Sysno.all)

let test_corpus_deterministic () =
  let a = Corpus.generate ~seed:42 ~size:100 in
  let b = Corpus.generate ~seed:42 ~size:100 in
  check_bool "same corpus" true (List.equal Program.equal a b)

let test_corpus_seed_sensitivity () =
  let a = Corpus.generate ~seed:1 ~size:100 in
  let b = Corpus.generate ~seed:2 ~size:100 in
  check_bool "different corpora" false (List.equal Program.equal a b)

let test_corpus_size () =
  check_int "requested size" 150 (List.length (Corpus.generate ~seed:5 ~size:150));
  check_int "small size" 10 (List.length (Corpus.generate ~seed:5 ~size:10))

(* The generator's bound on program length. *)
let max_program_len = 8

let test_corpus_length_bound () =
  List.iter
    (fun p -> check_bool "bounded" true (Program.length p <= max_program_len))
    (Corpus.generate ~seed:9 ~size:200)

let test_corpus_covers_subsystems () =
  let corpus = Corpus.generate ~seed:7 ~size:64 in
  let mentions s =
    List.exists
      (fun p ->
        List.exists
          (fun (c : Program.call) -> Sysno.equal c.Program.sysno s)
          (Program.calls p))
      corpus
  in
  List.iter
    (fun s ->
      check_bool (Sysno.to_string s) true (mentions s))
    [ Sysno.Socket; Sysno.Open; Sysno.Read; Sysno.Flowlabel_request;
      Sysno.Bind; Sysno.Sctp_assoc; Sysno.Get_cookie; Sysno.Alloc_protomem;
      Sysno.Uevent_recv; Sysno.Sysctl_write; Sysno.Setpriority;
      Sysno.Io_uring_read ]

let suite =
  [
    Alcotest.test_case "sysno: to_string/of_string roundtrip" `Quick
      test_sysno_roundtrip;
    Alcotest.test_case "sysno: unknown name rejected" `Quick test_sysno_unknown;
    Alcotest.test_case "sysno: names unique" `Quick test_sysno_names_unique;
    Alcotest.test_case "value: equality" `Quick test_value_equal;
    Alcotest.test_case "value: printing" `Quick test_value_print;
    QCheck_alcotest.to_alcotest prop_value_to_string_matches_pp;
    Alcotest.test_case "fdtype: of_socket_domain" `Quick test_fdtype_of_domain;
    Alcotest.test_case "fdtype: of_path" `Quick test_fdtype_of_path;
    Alcotest.test_case "fdtype: names unique" `Quick test_fdtype_names_unique;
    Alcotest.test_case "program: result types" `Quick test_program_result_types;
    Alcotest.test_case "program: uses types" `Quick test_program_uses_types;
    Alcotest.test_case "program: remove_call shifts refs" `Quick
      test_program_remove_call_shifts_refs;
    Alcotest.test_case "program: remove_call invalidates refs" `Quick
      test_program_remove_call_invalidates_refs;
    Alcotest.test_case "program: remove last call" `Quick test_program_remove_last;
    Alcotest.test_case "program: append shifts refs" `Quick
      test_program_append_shifts_refs;
    Alcotest.test_case "program: hash stable" `Quick test_program_hash_stable;
    Alcotest.test_case "syzlang: parse basic" `Quick test_syzlang_parse_basic;
    Alcotest.test_case "syzlang: string args" `Quick
      test_syzlang_parse_string_args;
    Alcotest.test_case "syzlang: resource refs" `Quick test_syzlang_parse_refs;
    Alcotest.test_case "syzlang: comments and blanks" `Quick
      test_syzlang_comments_and_blanks;
    Alcotest.test_case "syzlang: comma inside string" `Quick
      test_syzlang_string_with_comma;
    Alcotest.test_case "syzlang: prefix-less r-syscall with '='" `Quick
      test_syzlang_prefixless_r_syscall_with_eq;
    Alcotest.test_case "program: hash distinguishes long tails" `Quick
      test_program_hash_no_prefix_collision;
    Alcotest.test_case "syzlang: rejects unknown syscall" `Quick
      test_syzlang_rejects_unknown;
    Alcotest.test_case "syzlang: rejects garbage" `Quick
      test_syzlang_rejects_garbage;
    Alcotest.test_case "syzlang: roundtrip over generated corpus" `Quick
      test_syzlang_roundtrip_seeds;
    Alcotest.test_case "descriptor: covers all syscalls" `Quick
      test_descriptor_all_syscalls;
    Alcotest.test_case "descriptor: random args well-typed" `Quick
      test_descriptor_random_args_well_typed;
    Alcotest.test_case "corpus: deterministic for a seed" `Quick
      test_corpus_deterministic;
    Alcotest.test_case "corpus: seed-sensitive" `Quick
      test_corpus_seed_sensitivity;
    Alcotest.test_case "corpus: exact size" `Quick test_corpus_size;
    Alcotest.test_case "corpus: program length bounded" `Quick
      test_corpus_length_bound;
    Alcotest.test_case "corpus: covers all subsystems" `Quick
      test_corpus_covers_subsystems;
    QCheck_alcotest.to_alcotest prop_syzlang_roundtrip;
    QCheck_alcotest.to_alcotest prop_remove_call_length;
    QCheck_alcotest.to_alcotest prop_result_types_length;
  ]
