(* Tests for the trace library: AST construction, decoding, the
   Algorithm 1 comparison and non-determinism marking. *)

module Ast = Kit_trace.Ast
module Compare = Kit_trace.Compare
module Nondet = Kit_trace.Nondet
module Decode = Kit_trace.Decode
module K = Kit_kernel

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let leaf = Ast.leaf
let node = Ast.node

(* --- Ast ----------------------------------------------------------------- *)

let test_ast_size () =
  let t = node "a" [ leaf "b" "1"; node "c" [ leaf "d" "2" ] ] in
  check_int "size" 4 t.Ast.size;
  check_int "no nondet" 0 t.Ast.ndet

let test_ast_equal () =
  let t1 = node "a" [ leaf "b" "1" ] in
  let t2 = node "a" [ leaf "b" "1" ] in
  let t3 = node "a" [ leaf "b" "2" ] in
  check_bool "equal" true (Ast.equal t1 t2);
  check_bool "not equal" false (Ast.equal t1 t3);
  check_bool "det matters" false (Ast.equal t1 (Ast.with_det t2 false))

(* --- Compare (Algorithm 1) ----------------------------------------------- *)

let test_compare_identical () =
  let t = node "trace" [ node "call0:x" [ leaf "ret" "0" ] ] in
  check_int "no diffs" 0 (List.length (Compare.diff_trees t t))

let test_compare_value_mismatch () =
  let ta = node "trace" [ node "call0:x" [ leaf "ret" "0" ] ] in
  let tb = node "trace" [ node "call0:x" [ leaf "ret" "1" ] ] in
  match Compare.diff_trees ta tb with
  | [ d ] ->
    check_bool "path reaches the leaf" true
      (List.exists (String.equal "ret") d.Compare.path)
  | diffs -> Alcotest.failf "expected one diff, got %d" (List.length diffs)

let test_compare_length_mismatch_stops_descent () =
  let ta = node "out" [ leaf "l0" "a"; leaf "l1" "b" ] in
  let tb = node "out" [ leaf "l0" "a" ] in
  match Compare.diff_trees ta tb with
  | [ d ] -> check_bool "diff at parent" true (String.equal d.Compare.left.Ast.label "out")
  | diffs -> Alcotest.failf "expected one diff, got %d" (List.length diffs)

let test_compare_nondet_skipped () =
  let ta = node "trace" [ leaf ~det:false "time" "100" ] in
  let tb = node "trace" [ leaf "time" "200" ] in
  check_int "nondet node skipped" 0 (List.length (Compare.diff_trees ta tb))

let test_compare_nondet_parent_masks_subtree () =
  let ta = node ~det:false "out" [ leaf "l0" "a"; leaf "l1" "b" ] in
  let tb = node ~det:false "out" [ leaf "l0" "x" ] in
  check_int "whole subtree masked" 0 (List.length (Compare.diff_trees ta tb))

let test_compare_multiple_diffs () =
  let ta = node "trace" [ leaf "a" "1"; leaf "b" "2"; leaf "c" "3" ] in
  let tb = node "trace" [ leaf "a" "9"; leaf "b" "2"; leaf "c" "9" ] in
  check_int "two diffs" 2 (List.length (Compare.diff_trees ta tb))

let test_interfered_indices () =
  let call i v = node (Printf.sprintf "call%d:read" i) [ leaf "ret" v ] in
  let ta = node "trace" [ call 0 "1"; call 1 "2"; call 2 "3" ] in
  let tb = node "trace" [ call 0 "1"; call 1 "9"; call 2 "9" ] in
  check (Alcotest.list Alcotest.int) "indices" [ 1; 2 ]
    (Compare.interfered_of_diffs (Compare.diff_trees ta tb))

(* The call indices a diff under [label] names. *)
let indices_under label =
  let t v = node "trace" [ node label [ leaf "ret" v ] ] in
  Compare.interfered_of_diffs (Compare.diff_trees (t "1") (t "2"))

let test_call_index_parsing () =
  check_bool "call12:read" true (indices_under "call12:read" = [ 12 ]);
  check_bool "not a call" true (indices_under "stat" = [])

(* --- Nondet --------------------------------------------------------------- *)

let test_mark_value_variation () =
  let reference = node "trace" [ leaf "time" "100"; leaf "ret" "0" ] in
  let alt = node "trace" [ leaf "time" "200"; leaf "ret" "0" ] in
  let mask = Nondet.mark reference [ alt ] in
  match mask.Ast.children with
  | [ time; ret ] ->
    check_bool "time nondet" false time.Ast.det;
    check_bool "ret det" true ret.Ast.det
  | _ -> Alcotest.fail "shape"

let test_mark_length_variation () =
  let reference = node "out" [ leaf "l0" "a" ] in
  let alt = node "out" [ leaf "l0" "a"; leaf "l1" "b" ] in
  let mask = Nondet.mark reference [ alt ] in
  check_bool "parent nondet" false mask.Ast.det

let test_mark_no_variation () =
  let reference = node "trace" [ leaf "ret" "0" ] in
  let mask = Nondet.mark reference [ reference; reference ] in
  check_bool "all det" true (Ast.equal mask reference)

let test_apply_mask () =
  let mask = node "trace" [ leaf ~det:false "time" "100"; leaf "ret" "0" ] in
  let tree = node "trace" [ leaf "time" "150"; leaf "ret" "1" ] in
  let masked = Nondet.apply_mask mask tree in
  match masked.Ast.children with
  | [ time; ret ] ->
    check_bool "time masked" false time.Ast.det;
    check_bool "ret kept" true ret.Ast.det
  | _ -> Alcotest.fail "shape"

let test_apply_mask_extra_children_survive () =
  let mask = node "out" [ leaf "l0" "a" ] in
  let tree = node "out" [ leaf "l0" "a"; leaf "l1" "ADDED" ] in
  let masked = Nondet.apply_mask mask tree in
  match masked.Ast.children with
  | [ _; added ] -> check_bool "added line stays det" true added.Ast.det
  | _ -> Alcotest.fail "shape"

let test_mask_end_to_end () =
  (* A sender-added line must survive masking; a timing leaf must not. *)
  let solo k =
    node "trace"
      [ node "call0:read" [ leaf "time" (string_of_int (100 + k)); node "out" [ leaf "l0" "hdr" ] ] ]
  in
  let with_sender =
    node "trace"
      [ node "call0:read"
          [ leaf "time" "999"; node "out" [ leaf "l0" "hdr"; leaf "l1" "LEAK" ] ] ]
  in
  let mask = Nondet.mark (solo 0) [ solo 1; solo 2 ] in
  let ma = Nondet.apply_mask mask with_sender in
  let mb = Nondet.apply_mask mask (solo 0) in
  match Compare.diff_trees ma mb with
  | [ d ] -> check_bool "leak detected" true (String.equal d.Compare.left.Ast.label "out")
  | diffs -> Alcotest.failf "expected exactly the leak, got %d diffs" (List.length diffs)

(* --- Decode ----------------------------------------------------------------- *)

let run_and_decode text =
  let k = K.State.boot (K.Config.v5_13 ()) in
  let pid = K.State.spawn_container k in
  Decode.decode_trace (K.Interp.run k ~pid (Kit_abi.Syzlang.parse text))

let test_decode_shape () =
  let t = run_and_decode "r0 = getpid()\nr1 = clock_gettime()" in
  check_int "two calls" 2 (List.length t.Ast.children);
  match t.Ast.children with
  | [ c0; _ ] ->
    check_bool "labelled with index and name" true
      (String.equal c0.Ast.label "call0:getpid")
  | _ -> Alcotest.fail "shape"

let test_decode_multiline_payload () =
  let t = run_and_decode "r0 = open(\"/proc/net/sockstat\")\nr1 = read(r0)" in
  match t.Ast.children with
  | [ _; read ] ->
    let out =
      List.find_opt (fun c -> String.equal c.Ast.label "out") read.Ast.children
    in
    (match out with
    | Some out -> check_bool "one child per line" true (List.length out.Ast.children >= 3)
    | None -> Alcotest.fail "no out node")
  | _ -> Alcotest.fail "shape"

let test_decode_stat_fields () =
  let t = run_and_decode "r0 = open(\"/proc/net/sockstat\")\nr1 = fstat(r0)" in
  match t.Ast.children with
  | [ _; fstat ] ->
    let stat =
      List.find_opt (fun c -> String.equal c.Ast.label "stat") fstat.Ast.children
    in
    (match stat with
    | Some stat ->
      check (Alcotest.list Alcotest.string) "field labels"
        [ "ino"; "dev_minor"; "size"; "mtime" ]
        (List.map (fun c -> c.Ast.label) stat.Ast.children)
    | None -> Alcotest.fail "no stat node")
  | _ -> Alcotest.fail "shape"

let test_decode_errno () =
  let t = run_and_decode "r0 = read(99)" in
  match t.Ast.children with
  | [ call ] ->
    let errno =
      List.find_opt (fun c -> String.equal c.Ast.label "errno") call.Ast.children
    in
    (match errno with
    | Some e -> check Alcotest.string "EBADF" "EBADF" e.Ast.value
    | None -> Alcotest.fail "no errno node")
  | _ -> Alcotest.fail "shape"

(* --- qcheck properties -------------------------------------------------------- *)

let gen_ast =
  let open QCheck.Gen in
  sized_size (int_bound 4) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            map2
              (fun l v -> leaf (Printf.sprintf "l%d" l) (string_of_int v))
              (int_bound 3) (int_bound 5)
          else
            map2
              (fun l children -> node (Printf.sprintf "n%d" l) children)
              (int_bound 3)
              (list_size (int_bound 3) (self (n - 1))))
        n)

let rec pp_ast ppf (t : Ast.t) =
  let flag = if t.Ast.det then "" else " [nondet]" in
  if t.Ast.children = [] then
    Fmt.pf ppf "@[<h>%s=%s%s@]" t.Ast.label t.Ast.value flag
  else
    Fmt.pf ppf "@[<v 2>%s%s%a@]" t.Ast.label flag
      (Fmt.list ~sep:(Fmt.any "") (fun ppf c -> Fmt.pf ppf "@,%a" pp_ast c))
      t.Ast.children

let arbitrary_ast = QCheck.make ~print:(Fmt.str "%a" pp_ast) gen_ast

let prop_compare_reflexive =
  QCheck.Test.make ~name:"diff_trees t t = []" ~count:200 arbitrary_ast
    (fun t -> Compare.diff_trees t t = [])

let prop_compare_symmetric_count =
  QCheck.Test.make ~name:"diff count symmetric" ~count:200
    (QCheck.pair arbitrary_ast arbitrary_ast) (fun (a, b) ->
      List.length (Compare.diff_trees a b) = List.length (Compare.diff_trees b a))

let prop_mark_self_is_identity =
  QCheck.Test.make ~name:"mark t [t;t] = t" ~count:200 arbitrary_ast (fun t ->
      Ast.equal (Nondet.mark t [ t; t ]) t)

let prop_masked_compare_empty =
  QCheck.Test.make ~name:"masking both sides silences all diffs" ~count:200
    (QCheck.pair arbitrary_ast arbitrary_ast) (fun (a, b) ->
      (* Marking a against b makes every difference non-deterministic, so
         comparing the masked trees reports nothing. *)
      let mask = Nondet.mark a [ b ] in
      Compare.diff_trees (Nondet.apply_mask mask a) (Nondet.apply_mask mask b)
      = [])

let prop_apply_mask_only_clears =
  QCheck.Test.make ~name:"apply_mask never sets det" ~count:200
    (QCheck.pair arbitrary_ast arbitrary_ast) (fun (mask, t) ->
      let rec all_det_implied masked original =
        ((not masked.Ast.det) || original.Ast.det)
        && List.for_all2 all_det_implied masked.Ast.children
             original.Ast.children
      in
      let masked = Nondet.apply_mask mask t in
      all_det_implied masked t)

(* --- Decode labels ------------------------------------------------------ *)

let test_call_labels () =
  List.iter
    (fun sysno ->
      List.iter
        (fun i ->
          let expected =
            Printf.sprintf "call%d:%s" i (Kit_abi.Sysno.to_string sysno)
          in
          let result =
            { K.Interp.index = i;
              call = { Kit_abi.Program.sysno; args = [] };
              ret = K.Sysret.ok 0 }
          in
          let label =
            match (Decode.decode_trace [ result ]).Ast.children with
            | [ call ] -> call.Ast.label
            | _ -> Alcotest.fail "one call node per result"
          in
          check Alcotest.string expected expected label)
        [ 0; 63; 64; 200 ])
    Kit_abi.Sysno.all

let suite =
  [
    Alcotest.test_case "ast: size and counts" `Quick test_ast_size;
    Alcotest.test_case "decode: tabled call labels = Printf" `Quick
      test_call_labels;
    Alcotest.test_case "ast: equality" `Quick test_ast_equal;
    Alcotest.test_case "compare: identical trees" `Quick test_compare_identical;
    Alcotest.test_case "compare: value mismatch" `Quick
      test_compare_value_mismatch;
    Alcotest.test_case "compare: length mismatch stops descent" `Quick
      test_compare_length_mismatch_stops_descent;
    Alcotest.test_case "compare: nondet node skipped" `Quick
      test_compare_nondet_skipped;
    Alcotest.test_case "compare: nondet parent masks subtree" `Quick
      test_compare_nondet_parent_masks_subtree;
    Alcotest.test_case "compare: multiple diffs" `Quick
      test_compare_multiple_diffs;
    Alcotest.test_case "compare: interfered indices" `Quick
      test_interfered_indices;
    Alcotest.test_case "compare: call index parsing" `Quick
      test_call_index_parsing;
    Alcotest.test_case "nondet: value variation marked" `Quick
      test_mark_value_variation;
    Alcotest.test_case "nondet: length variation marks parent" `Quick
      test_mark_length_variation;
    Alcotest.test_case "nondet: no variation leaves tree det" `Quick
      test_mark_no_variation;
    Alcotest.test_case "nondet: apply mask" `Quick test_apply_mask;
    Alcotest.test_case "nondet: extra children survive mask" `Quick
      test_apply_mask_extra_children_survive;
    Alcotest.test_case "nondet: leak survives, timing masked (end-to-end)"
      `Quick test_mask_end_to_end;
    Alcotest.test_case "decode: trace shape" `Quick test_decode_shape;
    Alcotest.test_case "decode: multi-line payload" `Quick
      test_decode_multiline_payload;
    Alcotest.test_case "decode: stat fields" `Quick test_decode_stat_fields;
    Alcotest.test_case "decode: errno" `Quick test_decode_errno;
    QCheck_alcotest.to_alcotest prop_compare_reflexive;
    QCheck_alcotest.to_alcotest prop_compare_symmetric_count;
    QCheck_alcotest.to_alcotest prop_mark_self_is_identity;
    QCheck_alcotest.to_alcotest prop_masked_compare_empty;
    QCheck_alcotest.to_alcotest prop_apply_mask_only_clears;
  ]
