(* Equivalence gates for the compact hot-path representations: the
   packed trace comparison against a reference Algorithm 1 on the legacy
   node layout, the packed bitsets against a Set.Make(Int) model,
   fingerprint stability across processes, and decoding against a
   baseline run against the full decode. *)

module Ast = Kit_trace.Ast
module L = Legacy
module Compare = Kit_trace.Compare
module Nondet = Kit_trace.Nondet
module Bitset = Kit_compact.Bitset
module Testcase = Kit_gen.Testcase
module Caselog = Kit_core.Caselog
module Decode = Kit_trace.Decode
module K = Kit_kernel
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Campaign = Kit_core.Campaign
module Cluster = Kit_gen.Cluster
module Filter = Kit_detect.Filter
module Diagnose = Kit_report.Diagnose

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
   change det flag or (leaves, the only nodes packed traces give a value)
   value, a few are replaced wholesale (changing the shape), so diffs
   occur at realistic density. *)
let rec mutate (t : L.ast) st =
  if Random.State.int st 8 = 0 then gen_legacy 2 st
  else
    let l_value =
      if Random.State.int st 6 = 0 && t.L.l_children = [] then pick values st
      else t.L.l_value
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
    arbitrary_pair (fun (a, _) -> L.to_legacy (L.of_legacy a) = a)

let prop_packed_counters =
  QCheck.Test.make ~name:"packed size/nkids match a direct walk" ~count:200
    arbitrary_pair (fun (a, _) ->
      let p = L.of_legacy a in
      p.Ast.size = ref_size a
      && p.Ast.nkids = List.length a.L.l_children)

let prop_diff_equals_reference =
  QCheck.Test.make ~name:"diff_trees = reference Algorithm 1" ~count:500
    arbitrary_pair (fun (a, b) ->
      let packed = Compare.diff_trees (L.of_legacy a) (L.of_legacy b) in
      let refd = ref_diff_trees a b in
      List.length packed = List.length refd
      && List.for_all2
           (fun (d : Compare.diff) (path, l, r) ->
             d.Compare.path = path
             && L.to_legacy d.Compare.left = l
             && L.to_legacy d.Compare.right = r)
           packed refd)

(* The receiver call indices the reference diffs name: the [N] of each
   diff's "callN:name" label, 0 for a diff at the root. *)
let ref_interfered a b =
  let call_index label =
    match String.split_on_char ':' label with
    | name :: _ when String.length name > 4 && String.sub name 0 4 = "call" ->
      int_of_string_opt (String.sub name 4 (String.length name - 4))
    | _ -> None
  in
  List.filter_map
    (fun (path, _, _) ->
      match path with
      | _root :: call :: _ -> call_index call
      | [ root ] -> Some (Option.value ~default:0 (call_index root))
      | [] -> Some 0)
    (ref_diff_trees a b)
  |> List.sort_uniq Int.compare

let prop_interfered_equals_reference =
  QCheck.Test.make ~name:"interfered_indices = indices of reference diffs"
    ~count:500 arbitrary_pair (fun (a, b) ->
      let pa = L.of_legacy a and pb = L.of_legacy b in
      Compare.interfered_of_diffs (Compare.diff_trees pa pb) = ref_interfered a b)

let prop_mark_equals_reference =
  QCheck.Test.make ~name:"Nondet.mark = reference mark" ~count:500
    arbitrary_marked (fun (r, alts) ->
      let packed =
        Nondet.mark (L.of_legacy r) (List.map L.of_legacy alts)
      in
      L.to_legacy packed = ref_mark r alts)

let prop_apply_mask_equals_reference =
  QCheck.Test.make ~name:"Nondet.apply_mask = reference apply" ~count:500
    arbitrary_pair (fun (mask, tree) ->
      let packed =
        Nondet.apply_mask (L.of_legacy mask) (L.of_legacy tree)
      in
      L.to_legacy packed = ref_apply_mask mask tree)

(* --- bitsets vs a Set.Make(Int) model ----------------------------------- *)

module IntSet = Set.Make (Int)

(* Up to 120 members below 400, added in order. *)
let gen_members st =
  List.init (Random.State.int st 120) (fun _ -> Random.State.int st 400)

let of_members members =
  let bs = Bitset.create 64 in
  List.iter (Bitset.add bs) members;
  (bs, IntSet.of_list members)

let arbitrary_ops =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a / %a" Fmt.(Dump.list int) a Fmt.(Dump.list int) b)
    (fun st -> (gen_members st, gen_members st))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset ops = Set.Make(Int) model" ~count:500
    arbitrary_ops (fun (ops_a, ops_b) ->
      let bs_a, m_a = of_members ops_a and bs_b, m_b = of_members ops_b in
      (let members = ref [] in
       Bitset.iter (fun v -> members := v :: !members) bs_a;
       List.rev !members = IntSet.elements m_a)
      && Bitset.cardinal bs_a = IntSet.cardinal m_a
      && Bitset.inter_count bs_a bs_b
         = IntSet.cardinal (IntSet.inter m_a m_b)
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
      let fp = Testcase.fingerprint tc in
      check_string "recompute is stable" fp (Testcase.fingerprint tc);
      check_int "16 hex chars" 16 (String.length fp);
      String.iter
        (fun c ->
          check_bool "hex digit" true
            ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
        fp)
    sample_testcases;
  let fps = List.map Testcase.fingerprint sample_testcases in
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
  String.concat ";" (List.map Testcase.fingerprint sample_testcases)

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

(* --- decoding against a baseline -------------------------------------------

   A receiver's runs decode against its baseline run (execution B): a
   call whose return value equals the baseline's reuses the baseline's
   node. The result must be the full decode, structurally: legacy trees
   compare by [=] on every label, value, det flag and child. The
   sources are the runs a campaign decodes — every case's execution A
   and B, the mask's re-runs and Algorithm 2's re-tests of a seed-7
   RAND campaign at corpus 48 — run on the campaign's kernel the way
   the runner runs them, plus mutations of each baseline run. *)

let rand48 =
  { Campaign.default_options with
    Campaign.seed = 7; corpus_size = 48; strategy = Cluster.Rand 2000 }

(* [(baseline run, run)] pairs of one receiver each. *)
let campaign_runs =
  lazy
    (let o = rand48 in
     let prepared = Campaign.prepare o in
     let corpus = Campaign.prepared_corpus prepared in
     let env = Env.create o.Campaign.config in
     let run ?sender ~base receiver =
       Env.reset env ~base;
       Option.iter
         (fun s ->
           ignore (K.Interp.run env.Env.kernel ~pid:env.Env.sender_pid s))
         sender;
       K.Interp.run env.Env.kernel ~pid:env.Env.receiver_pid receiver
     in
     let base0 = env.Env.base0 in
     let runner =
       Runner.create ~reruns:o.Campaign.reruns (Env.create o.Campaign.config)
     in
     let runs = ref [] in
     List.iter
       (fun (tc : Testcase.t) ->
         let sender = corpus.(tc.Testcase.sender)
         and receiver = corpus.(tc.Testcase.receiver) in
         let b = run ~base:base0 receiver in
         let add r = runs := (b, r) :: !runs in
         add b;
         add (run ~sender ~base:base0 receiver);
         for k = 1 to o.Campaign.reruns do
           add (run ~base:(base0 + (k * runner.Runner.rerun_delta)) receiver)
         done;
         let outcome = Runner.execute runner ~sender ~receiver in
         match
           Filter.classify o.Campaign.spec ~testcase:tc ~sender ~receiver
             outcome (Filter.funnel_create ())
         with
         | Filter.Reported r ->
           let test ~sender ~receiver =
             add (run ~sender ~base:base0 receiver);
             Filter.protected_interfered o.Campaign.spec receiver
               (Runner.test_interference runner ~sender ~receiver)
           in
           ignore
             (Diagnose.culprits ~test ~sender ~receiver
                ~interfered:r.Kit_detect.Report.interfered)
         | Filter.No_divergence | Filter.Filtered_nondet
         | Filter.Filtered_resource ->
           ())
       (Campaign.generate_prepared prepared).Cluster.reps;
     List.rev !runs)

let decodes_like_full b results =
  L.to_legacy (Decode.decode_against b results)
  = L.to_legacy (Decode.decode_trace results)

let test_decode_against_real_runs () =
  let runs = Lazy.force campaign_runs in
  let same = ref 0 and differ = ref 0 in
  List.iteri
    (fun i (b_results, results) ->
      let b = Decode.baseline b_results in
      if not (decodes_like_full b results) then
        Alcotest.failf "run %d decodes unlike its full decode" i;
      if Decode.decode_against b results == Decode.baseline_trace b then
        incr same
      else incr differ)
    runs;
  check_bool "runs equal to their baseline are its trace" true (!same > 0);
  check_bool "runs that differ from their baseline" true (!differ > 0)

(* [results] with one call's return value, errno or payload changed,
   for every call; every prefix; and one and two calls more. *)
let mutations (results : K.Interp.result list) =
  let module S = K.Sysret in
  let change i f =
    List.map
      (fun (r : K.Interp.result) ->
        if r.K.Interp.index = i then { r with K.Interp.ret = f r.K.Interp.ret }
        else r)
      results
  in
  let line s = if s = "" then "x" else String.sub s 1 (String.length s - 1) in
  let payload = function
    | S.P_none -> S.P_str "x"
    | S.P_str s -> S.P_str (line s)
    | S.P_lines [] -> S.P_lines [ "x" ]
    | S.P_lines (l :: ls) -> S.P_lines (ls @ [ line l ])
    | S.P_stat st -> S.P_stat { st with S.mtime = st.S.mtime + 1 }
  in
  let n = List.length results in
  let changed =
    List.concat_map
      (fun i ->
        [ change i (fun r -> { r with S.ret = r.S.ret + 1 });
          change i (fun r ->
              let err =
                match r.S.err with None -> Some K.Errno.EPERM | Some _ -> None
              in
              { r with S.err });
          change i (fun r -> { r with S.out = payload r.S.out }) ])
      (List.init n Fun.id)
  in
  let shorter = List.init n (fun k -> List.filteri (fun j _ -> j < k) results) in
  let longer =
    match List.rev results with
    | [] -> []
    | last :: _ ->
      [ results @ [ { last with K.Interp.index = n } ];
        results
        @ [ { last with K.Interp.index = n };
            { last with
              K.Interp.index = n + 1;
              ret = K.Sysret.error K.Errno.EINVAL } ] ]
  in
  changed @ shorter @ longer

(* A run with every payload kind, whatever the campaign's receivers
   happen to return. *)
let every_payload =
  let module S = K.Sysret in
  let prog =
    Kit_abi.Syzlang.parse
      "r0 = uevent_recv(3)\nr1 = fstat(3)\nr2 = read(3)\nr3 = read(4)\n\
       r4 = getpid()\nr5 = read(5)"
  in
  List.mapi
    (fun index (call, ret) -> { K.Interp.index; call; ret })
    (List.combine (Kit_abi.Program.calls prog)
       [ S.ok 2 ~out:(S.P_lines [ "add@/n0"; "remove@/n0" ]);
         S.ok 0
           ~out:(S.P_stat { S.inode = 5; dev_minor = 1; size = 10; mtime = 99 });
         S.ok 5 ~out:(S.P_str "a\nb\nc");
         S.ok 3 ~out:(S.P_str "one");
         S.ok 77;
         S.error K.Errno.EBADF ])

let test_decode_against_mutated_runs () =
  let seen = Hashtbl.create 64 and checked = ref 0 in
  List.iter
    (fun (b_results, _) ->
      if not (Hashtbl.mem seen b_results) then begin
        Hashtbl.add seen b_results ();
        let b = Decode.baseline b_results in
        List.iter
          (fun results ->
            incr checked;
            if not (decodes_like_full b results) then
              Alcotest.failf
                "a mutated run of %d calls decodes unlike its full decode"
                (List.length results))
          (mutations b_results)
      end)
    ((every_payload, every_payload) :: Lazy.force campaign_runs);
  check_bool "mutations checked" true (!checked > 100)

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

(* Decoding a run equal to its baseline allocates nothing, not even the
   list it would rebuild; a run with one differing call decodes that
   call only, which allocates less than the full decode. *)
let test_decode_against_baseline_counted () =
  let env = Env.create (K.Config.v5_13 ()) in
  let receiver =
    Kit_abi.Syzlang.parse
      "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)\n\
       r2 = open(\"/proc/net/sockstat\")\nr3 = read(r2)\n\
       r4 = fstat(r2)\nr5 = gethostname()\nr6 = getpid()\n\
       r7 = clock_gettime()"
  in
  let run () =
    Env.reset env ~base:env.Env.base0;
    K.Interp.run env.Env.kernel ~pid:env.Env.receiver_pid receiver
  in
  let b = Decode.baseline (run ()) and same = run () in
  check_int "eight calls" 8 (List.length same);
  check_bool "an equal run is the baseline's trace" true
    (Decode.decode_against b same == Decode.baseline_trace b);
  check_bool "no allocation per equal decode" true
    (words_per_call 100 (fun () -> Decode.decode_against b same) < 1.0);
  let one_differs =
    List.map
      (fun (r : K.Interp.result) ->
        if r.K.Interp.index = 3 then
          { r with K.Interp.ret = { r.K.Interp.ret with K.Sysret.ret = 1 } }
        else r)
      same
  in
  let partial =
    words_per_call 100 (fun () -> Decode.decode_against b one_differs)
  and full = words_per_call 100 (fun () -> Decode.decode_trace one_differs) in
  check_bool
    (Printf.sprintf "one differing call: %.0f words, full decode %.0f"
       partial full)
    true
    (partial < full /. 2.0)

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
    Alcotest.test_case "decode: against a baseline = full, on campaign runs"
      `Quick test_decode_against_real_runs;
    Alcotest.test_case "decode: against a baseline = full, on mutated runs"
      `Quick test_decode_against_mutated_runs;
    Alcotest.test_case "decode: an equal run allocates nothing" `Quick
      test_decode_against_baseline_counted;
  ]
