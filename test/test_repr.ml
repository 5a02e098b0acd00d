(* Equivalence gates for the compact hot-path representations: the
   packed trace comparison against a reference Algorithm 1 on the legacy
   node layout, the packed bitsets against a Set.Make(Int) model, and
   fingerprint stability across processes. *)

module Ast = Kit_trace.Ast
module L = Kit_trace.Ast.Legacy
module Compare = Kit_trace.Compare
module Nondet = Kit_trace.Nondet
module Bitset = Kit_compact.Bitset
module Testcase = Kit_gen.Testcase
module Caselog = Kit_core.Caselog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- reference implementations on the legacy layout --------------------

   These re-state the pre-packing algorithms verbatim over the legacy
   record: no content hashes, no physical equality, no precomputed child
   counts. The properties below check the packed code paths agree with
   them on random tree pairs. *)

let rec ref_size (t : L.ast) =
  List.fold_left (fun acc c -> acc + ref_size c) 1 t.L.l_children

let ref_diff_trees (ta : L.ast) (tb : L.ast) =
  let rec cmp path (ta : L.ast) (tb : L.ast) acc =
    if not (ta.L.l_det && tb.L.l_det) then acc
    else if
      (not (String.equal ta.L.l_value tb.L.l_value))
      || List.length ta.L.l_children <> List.length tb.L.l_children
    then (List.rev (ta.L.l_label :: path), ta, tb) :: acc
    else
      List.fold_left2
        (fun acc ca cb -> cmp (ta.L.l_label :: path) ca cb acc)
        acc ta.L.l_children tb.L.l_children
  in
  List.rev (cmp [] ta tb [])

let rec ref_mark (reference : L.ast) alternatives =
  let disagrees (alt : L.ast) =
    (not (String.equal alt.L.l_value reference.L.l_value))
    || List.length alt.L.l_children <> List.length reference.L.l_children
  in
  if List.exists disagrees alternatives then
    { reference with L.l_det = false }
  else
    let children =
      List.mapi
        (fun i c ->
          ref_mark c
            (List.map (fun (a : L.ast) -> List.nth a.L.l_children i)
               alternatives))
        reference.L.l_children
    in
    { reference with L.l_children = children }

let rec ref_apply_mask (mask : L.ast) (tree : L.ast) =
  let det = tree.L.l_det && mask.L.l_det in
  if not det then { tree with L.l_det = false }
  else
    let rec walk mkids tkids =
      match (mkids, tkids) with
      | _, [] -> []
      | [], extra -> extra
      | m :: ms, c :: cs -> ref_apply_mask m c :: walk ms cs
    in
    { tree with
      L.l_det = det;
      L.l_children = walk mask.L.l_children tree.L.l_children }

(* --- random legacy trees and structure-preserving mutations ------------ *)

let labels =
  [| "trace"; "call0:open"; "call1:read"; "call2:stat"; "ret"; "errno";
     "size"; "arg0"; "arg1"; "ino" |]

let values = [| ""; "0"; "1"; "2"; "3"; "-1"; "0x1000"; "ENOENT"; "437" |]

let pick arr st = arr.(Random.State.int st (Array.length arr))

let rec gen_legacy depth st =
  let l_label = pick labels st in
  let l_det = Random.State.int st 8 <> 0 in
  if depth = 0 || Random.State.int st 3 = 0 then
    { L.l_label; l_value = pick values st; l_det; l_children = [] }
  else
    let n = 1 + Random.State.int st 3 in
    { L.l_label; l_value = ""; l_det;
      l_children = List.init n (fun _ -> gen_legacy (depth - 1) st) }

(* Mutate a tree into a related one: most nodes survive untouched, some
   change value or det flag, a few are replaced wholesale (changing the
   shape), so diffs occur at realistic density. *)
let rec mutate (t : L.ast) st =
  if Random.State.int st 8 = 0 then gen_legacy 2 st
  else
    let l_value =
      if Random.State.int st 6 = 0 then pick values st else t.L.l_value
    in
    let l_det =
      if Random.State.int st 8 = 0 then not t.L.l_det else t.L.l_det
    in
    let l_children =
      List.map
        (fun c -> if Random.State.int st 3 = 0 then mutate c st else c)
        t.L.l_children
    in
    { t with L.l_value; l_det; l_children }

let gen_pair st =
  let a = gen_legacy 4 st in
  let b = if Random.State.int st 4 = 0 then a else mutate a st in
  (a, b)

let rec pp_legacy ppf (t : L.ast) =
  Fmt.pf ppf "(%s=%S%s %a)" t.L.l_label t.L.l_value
    (if t.L.l_det then "" else "!")
    (Fmt.list ~sep:Fmt.sp pp_legacy)
    t.L.l_children

let arbitrary_pair =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a@.%a" pp_legacy a pp_legacy b)
    gen_pair

let arbitrary_marked =
  QCheck.make
    ~print:(fun (r, alts) ->
      Fmt.str "%a@.%a" pp_legacy r (Fmt.list pp_legacy) alts)
    (fun st ->
      let r = gen_legacy 4 st in
      let n = 1 + Random.State.int st 3 in
      (r, List.init n (fun _ -> if Random.State.int st 3 = 0 then r
                                else mutate r st)))

(* --- packed vs reference properties ------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"of_legacy/to_legacy roundtrip" ~count:200
    arbitrary_pair (fun (a, _) -> Ast.to_legacy (Ast.of_legacy a) = a)

let prop_packed_counters =
  QCheck.Test.make ~name:"packed size/nkids match a direct walk" ~count:200
    arbitrary_pair (fun (a, _) ->
      let p = Ast.of_legacy a in
      Ast.size p = ref_size a
      && p.Ast.nkids = List.length a.L.l_children)

let prop_diff_equals_reference =
  QCheck.Test.make ~name:"diff_trees = reference Algorithm 1" ~count:500
    arbitrary_pair (fun (a, b) ->
      let packed = Compare.diff_trees (Ast.of_legacy a) (Ast.of_legacy b) in
      let refd = ref_diff_trees a b in
      List.length packed = List.length refd
      && List.for_all2
           (fun (d : Compare.diff) (path, l, r) ->
             d.Compare.path = path
             && Ast.to_legacy d.Compare.left = l
             && Ast.to_legacy d.Compare.right = r)
           packed refd)

let prop_interfered_equals_reference =
  QCheck.Test.make ~name:"interfered_indices = indices of reference diffs"
    ~count:500 arbitrary_pair (fun (a, b) ->
      let pa = Ast.of_legacy a and pb = Ast.of_legacy b in
      Compare.interfered_indices pa pb
      = Compare.interfered_of_diffs (Compare.diff_trees pa pb))

let prop_mark_equals_reference =
  QCheck.Test.make ~name:"Nondet.mark = reference mark" ~count:500
    arbitrary_marked (fun (r, alts) ->
      let packed =
        Nondet.mark (Ast.of_legacy r) (List.map Ast.of_legacy alts)
      in
      Ast.to_legacy packed = ref_mark r alts)

let prop_apply_mask_equals_reference =
  QCheck.Test.make ~name:"Nondet.apply_mask = reference apply" ~count:500
    arbitrary_pair (fun (mask, tree) ->
      let packed =
        Nondet.apply_mask (Ast.of_legacy mask) (Ast.of_legacy tree)
      in
      Ast.to_legacy packed = ref_apply_mask mask tree)

(* --- bitsets vs a Set.Make(Int) model ----------------------------------- *)

module IntSet = Set.Make (Int)

let gen_ops st =
  List.init (Random.State.int st 120) (fun _ ->
      (Random.State.int st 3, Random.State.int st 400))

let apply_ops ops =
  let bs = Bitset.create 64 and model = ref IntSet.empty in
  List.iter
    (fun (op, v) ->
      match op with
      | 0 -> Bitset.add bs v; model := IntSet.add v !model
      | 1 -> Bitset.remove bs v; model := IntSet.remove v !model
      | _ -> ())
    ops;
  (bs, !model)

let arbitrary_ops =
  QCheck.make
    ~print:(fun (a, b) ->
      Fmt.str "%a / %a"
        Fmt.(list (pair int int))
        a
        Fmt.(list (pair int int))
        b)
    (fun st -> (gen_ops st, gen_ops st))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset ops = Set.Make(Int) model" ~count:500
    arbitrary_ops (fun (ops_a, ops_b) ->
      let bs_a, m_a = apply_ops ops_a and bs_b, m_b = apply_ops ops_b in
      Bitset.elements bs_a = IntSet.elements m_a
      && Bitset.cardinal bs_a = IntSet.cardinal m_a
      && Bitset.is_empty bs_a = IntSet.is_empty m_a
      && Bitset.inter_count bs_a bs_b
         = IntSet.cardinal (IntSet.inter m_a m_b)
      && Bitset.elements (Bitset.inter bs_a bs_b)
         = IntSet.elements (IntSet.inter m_a m_b)
      && Bitset.elements (Bitset.union bs_a bs_b)
         = IntSet.elements (IntSet.union m_a m_b)
      && List.for_all (fun v -> Bitset.mem bs_a v = IntSet.mem v m_a)
           (List.init 400 Fun.id))

(* --- fingerprints -------------------------------------------------------- *)

let sample_testcases =
  [ { Testcase.sender = 3; receiver = 5; flow = None };
    { Testcase.sender = 0; receiver = 7;
      flow =
        Some
          { Testcase.addr = 0x1040; w_ip = 12; r_ip = 34;
            w_stack = [ 1; 2; 3 ]; r_stack = [ 4; 5 ]; r_sys_index = 2 } };
    { Testcase.sender = 11; receiver = 11;
      flow =
        Some
          { Testcase.addr = 0x2000; w_ip = 9; r_ip = 9; w_stack = [];
            r_stack = [ 0 ]; r_sys_index = 0 } } ]

let test_fingerprint_shape () =
  List.iter
    (fun tc ->
      let fp = Caselog.fingerprint tc in
      check_string "recompute is stable" fp (Caselog.fingerprint tc);
      check_int "16 hex chars" 16 (String.length fp);
      String.iter
        (fun c ->
          check_bool "hex digit" true
            ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
        fp)
    sample_testcases;
  let fps = List.map Caselog.fingerprint sample_testcases in
  check_int "distinct testcases get distinct fingerprints"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

(* The cache key must not depend on process identity: re-execute the
   test binary (the same spawn mechanism the worker pool uses — raw
   [Unix.fork] is unavailable once any domain has been spawned), have
   the child print the same fingerprints, and compare. Daemon
   checkpoints replay across restarts only because of this. *)
let fp_env_var = "KIT_TEST_FP_CHILD"

let fp_view () =
  String.concat ";" (List.map Caselog.fingerprint sample_testcases)

(* Trampoline called from test_kit.ml before alcotest sees argv. The
   view goes to a file, not stdout — other suites print banners at
   module initialization, before this entry runs. *)
let child_entry () =
  match Sys.getenv_opt fp_env_var with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (fp_view ());
    close_out oc;
    exit 0

let test_fingerprint_cross_process () =
  let parent_view = fp_view () in
  let path = Filename.temp_file "kit-fp-child" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let pid =
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          (Array.append (Unix.environment ())
             [| fp_env_var ^ "=" ^ path |])
          Unix.stdin Unix.stdout Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      check_bool "child exited cleanly" true (status = Unix.WEXITED 0);
      let ic = open_in_bin path in
      let child_view =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_string "child sees identical fingerprints" parent_view
        child_view)

(* --- counted work ---------------------------------------------------------

   The packed paths must do O(1) (compare) or O(words) (intersection)
   work with no per-node or per-member allocation. Minor-heap words per
   call count that work deterministically, where a timing would not. *)

let words_per_call iters f =
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* Two separately built, structurally equal traces (64 calls x 8 result
   fields): the common case, where run A agrees with run B. The
   content-hash short-circuit answers at the root; a walk allocates a
   path cons per node it descends through. *)
let test_compare_equal_traces_no_alloc () =
  let mk_trace () =
    Ast.node "trace"
      (List.init 64 (fun i ->
           Ast.node
             (Printf.sprintf "call%d:open" i)
             (List.init 8 (fun j ->
                  Ast.leaf (Printf.sprintf "arg%d" j)
                    (string_of_int ((i * 8) + j))))))
  in
  let ta = mk_trace () and tb = mk_trace () in
  check_bool "separately built" false (ta == tb);
  check_int "no diffs" 0 (List.length (Compare.diff_trees ta tb));
  check_bool "no allocation per compare" true
    (words_per_call 100 (fun () -> Compare.diff_trees ta tb) < 1.0)

let test_bitset_inter_count_no_alloc () =
  let of_step step =
    let b = Bitset.create 0x8000 in
    for i = 0 to 4095 do
      Bitset.add b (0x1000 + (step * i))
    done;
    b
  in
  let w = of_step 3 and r = of_step 5 in
  check_int "overlap" 820 (Bitset.inter_count w r);
  check_bool "no allocation per intersection" true
    (words_per_call 100 (fun () -> Bitset.inter_count w r) < 1.0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_packed_counters;
    QCheck_alcotest.to_alcotest prop_diff_equals_reference;
    QCheck_alcotest.to_alcotest prop_interfered_equals_reference;
    QCheck_alcotest.to_alcotest prop_mark_equals_reference;
    QCheck_alcotest.to_alcotest prop_apply_mask_equals_reference;
    QCheck_alcotest.to_alcotest prop_bitset_model;
    Alcotest.test_case "fingerprint: stable, hex, collision-free" `Quick
      test_fingerprint_shape;
    Alcotest.test_case "fingerprint: identical across processes" `Quick
      test_fingerprint_cross_process;
    Alcotest.test_case "compare: equal traces cost no allocation" `Quick
      test_compare_equal_traces_no_alloc;
    Alcotest.test_case "bitset: inter_count allocates nothing" `Quick
      test_bitset_inter_count_no_alloc;
  ]
