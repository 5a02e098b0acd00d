(* Tests for the profiling library: simulated call-stack reconstruction,
   access deduplication, the access map, and profile collection. *)

module K = Kit_kernel
module Stackrec = Kit_profile.Stackrec
module Collect = Kit_profile.Collect
module Accessmap = Kit_profile.Accessmap
module Syzlang = Kit_abi.Syzlang

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let mem ?(addr = 1) ?(width = 8) ?(rw = K.Kevent.Read) ?(ip = 7) () =
  K.Kevent.Mem { K.Kevent.addr; width; rw; ip }

(* --- Stackrec ------------------------------------------------------------- *)

let test_replay_stack_attribution () =
  let events =
    [ K.Kevent.Sys_enter 0; K.Kevent.Fn_enter 10; K.Kevent.Fn_enter 20;
      mem (); K.Kevent.Fn_exit 20; K.Kevent.Fn_exit 10; K.Kevent.Sys_exit 0 ]
  in
  match Stackrec.replay events with
  | [ a ] ->
    check (Alcotest.list Alcotest.int) "stack innermost first" [ 20; 10 ]
      a.Stackrec.stack;
    check_int "syscall index" 0 a.Stackrec.sys_index
  | accs -> Alcotest.failf "expected one access, got %d" (List.length accs)

let test_replay_pops_frames () =
  let events =
    [ K.Kevent.Sys_enter 0; K.Kevent.Fn_enter 10; K.Kevent.Fn_exit 10;
      K.Kevent.Fn_enter 11; mem (); K.Kevent.Fn_exit 11 ]
  in
  match Stackrec.replay events with
  | [ a ] ->
    check (Alcotest.list Alcotest.int) "previous frame popped" [ 11 ]
      a.Stackrec.stack
  | _ -> Alcotest.fail "expected one access"

let test_replay_syscall_indices () =
  let events =
    [ K.Kevent.Sys_enter 0; mem (); K.Kevent.Sys_exit 0; K.Kevent.Sys_enter 1;
      mem (); K.Kevent.Sys_exit 1 ]
  in
  match Stackrec.replay events with
  | [ a; b ] ->
    check_int "first" 0 a.Stackrec.sys_index;
    check_int "second" 1 b.Stackrec.sys_index
  | _ -> Alcotest.fail "expected two accesses"

let test_dedup () =
  let events =
    [ K.Kevent.Sys_enter 0; K.Kevent.Fn_enter 10; mem (); mem ();
      mem ~rw:K.Kevent.Write (); K.Kevent.Fn_exit 10 ]
  in
  let accs = Stackrec.dedup (Stackrec.replay events) in
  check_int "read+write kept once each" 2 (List.length accs)

let test_dedup_keeps_distinct_stacks () =
  let events =
    [ K.Kevent.Sys_enter 0; K.Kevent.Fn_enter 10; mem (); K.Kevent.Fn_exit 10;
      K.Kevent.Fn_enter 11; mem (); K.Kevent.Fn_exit 11 ]
  in
  let accs = Stackrec.dedup (Stackrec.replay events) in
  check_int "distinct stacks kept" 2 (List.length accs)

(* --- Accessmap ------------------------------------------------------------- *)

let access ~rw ~addr ~ip ~sys_index =
  { Stackrec.addr; width = 8; rw; ip; stack = [ ip ]; stack_hash = ip;
    sys_index }

let test_accessmap_overlaps () =
  let map = Accessmap.create () in
  Accessmap.add map ~prog:0
    [ access ~rw:K.Kevent.Write ~addr:100 ~ip:1 ~sys_index:0 ];
  Accessmap.add map ~prog:1
    [ access ~rw:K.Kevent.Read ~addr:100 ~ip:2 ~sys_index:0;
      access ~rw:K.Kevent.Read ~addr:200 ~ip:3 ~sys_index:1 ];
  let overlaps = ref 0 in
  Accessmap.iter_overlap_chains map
    (fun ~addr ~whead:_ ~wcount ~rhead:_ ~rcount ->
      incr overlaps;
      check_int "overlap addr" 100 addr;
      check_int "one writer" 1 wcount;
      check_int "one reader" 1 rcount);
  check_int "exactly one overlapping address" 1 !overlaps

let test_accessmap_stats () =
  let map = Accessmap.create () in
  Accessmap.add map ~prog:0
    [ access ~rw:K.Kevent.Write ~addr:100 ~ip:1 ~sys_index:0;
      access ~rw:K.Kevent.Read ~addr:100 ~ip:1 ~sys_index:0 ];
  let s = Accessmap.stats map in
  check_int "write addrs" 1 s.Accessmap.write_addrs;
  check_int "write count" 1 s.Accessmap.write_entries;
  check_int "read addrs" 1 s.Accessmap.read_addrs;
  check_int "read count" 1 s.Accessmap.read_entries

let test_accessmap_one_sided_addresses () =
  (* Addresses touched by only one side never appear as overlaps. *)
  let map = Accessmap.create () in
  Accessmap.add map ~prog:0
    [ access ~rw:K.Kevent.Write ~addr:100 ~ip:1 ~sys_index:0 ];
  Accessmap.add map ~prog:1
    [ access ~rw:K.Kevent.Read ~addr:200 ~ip:2 ~sys_index:0 ];
  let visited = ref [] in
  Accessmap.iter_overlap_chains map
    (fun ~addr ~whead:_ ~wcount:_ ~rhead:_ ~rcount:_ ->
      visited := addr :: !visited);
  check (Alcotest.list Alcotest.int) "writer-only and reader-only skipped" []
    !visited;
  let s = Accessmap.stats map in
  check_int "writer-only address still counted" 1 s.Accessmap.write_addrs;
  check_int "reader-only address still counted" 1 s.Accessmap.read_addrs

let test_accessmap_empty_stats () =
  let s = Accessmap.stats (Accessmap.create ()) in
  check_int "no write addrs" 0 s.Accessmap.write_addrs;
  check_int "no write entries" 0 s.Accessmap.write_entries;
  check_int "no read addrs" 0 s.Accessmap.read_addrs;
  check_int "no read entries" 0 s.Accessmap.read_entries

(* --- Collect ----------------------------------------------------------------- *)

let test_collect_profile_nonempty () =
  let profiler = Collect.create (K.Config.v5_13 ()) in
  let profile =
    Collect.profile profiler ~role:Collect.Receiver
      (Syzlang.parse "r0 = socket(3)")
  in
  check_bool "accesses recorded" true (List.length profile.Collect.accesses > 0);
  check_int "results" 1 (List.length profile.Collect.results)

let test_collect_deterministic () =
  let profiler = Collect.create (K.Config.v5_13 ()) in
  let prog = Syzlang.parse "r0 = open(\"/proc/net/ptype\")\nr1 = read(r0)" in
  let p1 = Collect.profile profiler ~role:Collect.Receiver prog in
  let p2 = Collect.profile profiler ~role:Collect.Receiver prog in
  let key (a : Stackrec.access) = (a.Stackrec.addr, a.Stackrec.rw, a.Stackrec.ip) in
  check_bool "identical footprints (snapshot reload)" true
    (List.equal
       (fun a b -> key a = key b)
       p1.Collect.accesses p2.Collect.accesses)

let test_collect_roles_share_addresses () =
  let profiler = Collect.create (K.Config.v5_13 ()) in
  let prog = Syzlang.parse "r0 = socket(3)" in
  let ps = Collect.profile profiler ~role:Collect.Sender prog in
  let pr = Collect.profile profiler ~role:Collect.Receiver prog in
  let addrs p =
    List.sort_uniq Int.compare
      (List.map (fun (a : Stackrec.access) -> a.Stackrec.addr) p.Collect.accesses)
  in
  check (Alcotest.list Alcotest.int) "same shared variables" (addrs ps)
    (addrs pr)

let test_collect_jump_label_blindness () =
  (* The flow-label static key must be invisible when CONFIG_JUMP_LABEL
     is enabled (paper, section 6.1). *)
  let footprint config =
    let profiler = Collect.create config in
    let p =
      Collect.profile profiler ~role:Collect.Receiver
        (Syzlang.parse "r0 = socket(9)\nr1 = send(r0, 8, 2)")
    in
    List.length p.Collect.accesses
  in
  let visible = footprint (K.Config.v5_13 ~jump_label:false ()) in
  let hidden = footprint (K.Config.v5_13 ~jump_label:true ()) in
  check_bool "fewer instrumented accesses under jump labels" true
    (hidden < visible)

let suite =
  [
    Alcotest.test_case "stackrec: stack attribution" `Quick
      test_replay_stack_attribution;
    Alcotest.test_case "stackrec: frames popped" `Quick test_replay_pops_frames;
    Alcotest.test_case "stackrec: syscall indices" `Quick
      test_replay_syscall_indices;
    Alcotest.test_case "stackrec: dedup by site" `Quick test_dedup;
    Alcotest.test_case "stackrec: dedup keeps distinct stacks" `Quick
      test_dedup_keeps_distinct_stacks;
    Alcotest.test_case "accessmap: writer/reader overlap" `Quick
      test_accessmap_overlaps;
    Alcotest.test_case "accessmap: stats" `Quick test_accessmap_stats;
    Alcotest.test_case "accessmap: one-sided addresses never overlap" `Quick
      test_accessmap_one_sided_addresses;
    Alcotest.test_case "accessmap: empty stats" `Quick test_accessmap_empty_stats;
    Alcotest.test_case "collect: profile non-empty" `Quick
      test_collect_profile_nonempty;
    Alcotest.test_case "collect: deterministic across reloads" `Quick
      test_collect_deterministic;
    Alcotest.test_case "collect: roles share variable addresses" `Quick
      test_collect_roles_share_addresses;
    Alcotest.test_case "collect: jump-label blindness" `Quick
      test_collect_jump_label_blindness;
  ]
