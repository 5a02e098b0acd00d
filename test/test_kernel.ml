(* Tests for the model kernel: tracing infrastructure, process and
   socket tables, every bug-bearing subsystem (buggy vs fixed code
   paths), the syscall layer and the interpreter. *)

module Sysno = Kit_abi.Sysno
module Value = Kit_abi.Value
module Consts = Kit_abi.Consts
module K = Kit_kernel

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let buggy () = K.State.boot (K.Config.v5_13 ())
let fixed () = K.State.boot (K.Config.fixed ())

(* Boot a kernel with two containers; returns (kernel, sender pid,
   receiver pid). *)
let with_containers ?(config = K.Config.v5_13 ()) () =
  let k = K.State.boot config in
  let s = K.State.spawn_container k in
  let r = K.State.spawn_container k in
  (k, s, r)

let run k pid text = K.Interp.run k ~pid (Kit_abi.Syzlang.parse text)

let last_ret results =
  match List.rev results with
  | r :: _ -> r.K.Interp.ret
  | [] -> Alcotest.fail "no results"

let last_str results =
  match (last_ret results).K.Sysret.out with
  | K.Sysret.P_str s -> s
  | K.Sysret.P_none | K.Sysret.P_lines _ | K.Sysret.P_stat _ ->
    Alcotest.fail "expected string payload"

let last_lines results =
  match (last_ret results).K.Sysret.out with
  | K.Sysret.P_lines ls -> ls
  | K.Sysret.P_none | K.Sysret.P_str _ | K.Sysret.P_stat _ ->
    Alcotest.fail "expected lines payload"

let last_stat results =
  match (last_ret results).K.Sysret.out with
  | K.Sysret.P_stat st -> st
  | K.Sysret.P_none | K.Sysret.P_str _ | K.Sysret.P_lines _ ->
    Alcotest.fail "expected stat payload"

let errno_of results =
  match (last_ret results).K.Sysret.err with
  | Some e -> K.Errno.to_string e
  | None -> "0"

(* --- heap / var --------------------------------------------------------- *)

let test_var_snapshot_roundtrip () =
  let heap = K.Heap.create () in
  let ctx = K.Ctx.create () in
  let v1 = K.Var.alloc heap ~name:"a" 1 in
  let v2 = K.Var.alloc heap ~name:"b" "x" in
  let snap = K.Heap.snapshot heap in
  K.Var.write ctx v1 42;
  K.Var.write ctx v2 "y";
  K.Heap.restore heap snap;
  check_int "int restored" 1 (K.Var.peek v1);
  check_string "string restored" "x" (K.Var.peek v2)

let test_var_addresses_unique () =
  let heap = K.Heap.create () in
  ignore (K.Var.alloc heap ~name:"a" 0 : int K.Var.t);
  ignore (K.Var.alloc heap ~name:"b" 0 : int K.Var.t);
  match K.Heap.vars heap with
  | [ v1; v2 ] -> check_bool "distinct" true (v1.K.Heap.v_addr <> v2.K.Heap.v_addr)
  | vars -> Alcotest.failf "%d vars registered" (List.length vars)

(* Regression: restore used to ignore its heap argument entirely, so a
   snapshot silently spliced another kernel's state into this one. *)
let test_restore_rejects_foreign_snapshot () =
  let h1 = K.Heap.create () in
  let h2 = K.Heap.create () in
  let ctx = K.Ctx.create () in
  let v1 = K.Var.alloc h1 ~name:"a" 1 in
  ignore (K.Var.alloc h2 ~name:"a" 1 : int K.Var.t);
  let snap2 = K.Heap.snapshot h2 in
  K.Var.write ctx v1 42;
  Alcotest.check_raises "cross-heap restore rejected"
    (Invalid_argument "Heap.restore: snapshot belongs to a different heap")
    (fun () -> K.Heap.restore h1 snap2);
  check_int "h1 untouched by the rejected restore" 42 (K.Var.peek v1)

(* Incremental restore bookkeeping: only dirty cells are replayed when
   re-restoring the same snapshot, and a dirty heap always converges to
   the snapshot contents either way. *)
let test_restore_incremental_stats () =
  let heap = K.Heap.create () in
  let ctx = K.Ctx.create () in
  let v1 = K.Var.alloc heap ~name:"a" 1 in
  let v2 = K.Var.alloc heap ~name:"b" 2 in
  let v3 = K.Var.alloc heap ~name:"c" 3 in
  (* the cells restores replayed, and those full restores would have, as
     the heap counts them in the default registry *)
  let count name =
    Kit_obs.Metrics.counter_value
      (Kit_obs.Metrics.counter Kit_obs.Metrics.default name)
  in
  let replayed0 = count "heap.cells_restored"
  and total0 = count "heap.cells_total" in
  let restore_stats () =
    ( count "heap.cells_restored" - replayed0,
      count "heap.cells_total" - total0 )
  in
  let enabled = Kit_obs.Metrics.enabled Kit_obs.Metrics.default in
  Kit_obs.Metrics.set_enabled Kit_obs.Metrics.default true;
  Fun.protect ~finally:(fun () ->
      Kit_obs.Metrics.set_enabled Kit_obs.Metrics.default enabled)
  @@ fun () ->
  let snap = K.Heap.snapshot heap in
  K.Var.write ctx v2 20;
  K.Heap.restore heap snap;
  let replayed, total = restore_stats () in
  check_int "one dirty cell replayed" 1 replayed;
  check_int "a full restore would replay all three" 3 total;
  check_int "b restored" 2 (K.Var.peek v2);
  (* clean heap: re-restoring the same snapshot replays nothing *)
  K.Heap.restore heap snap;
  let replayed, _ = restore_stats () in
  check_int "clean re-restore replays nothing" 1 replayed;
  (* ~full:true replays everything regardless of the dirty set *)
  K.Var.write ctx v1 10;
  K.Heap.restore ~full:true heap snap;
  let replayed, total = restore_stats () in
  check_int "full restore replays all cells" 4 replayed;
  check_int "running full-cost total" 9 total;
  check_int "a restored" 1 (K.Var.peek v1);
  check_int "c untouched throughout" 3 (K.Var.peek v3)

let collect_events ctx f =
  let events = ref [] in
  K.Ctx.with_sink ctx (fun e -> events := e :: !events) f;
  List.rev !events

let test_var_traced_access () =
  let heap = K.Heap.create () in
  let ctx = K.Ctx.create () in
  let v = K.Var.alloc heap ~name:"a" 0 in
  let events =
    collect_events ctx (fun () ->
        ignore (K.Var.read ctx v);
        K.Var.write ctx v 1)
  in
  let mems =
    List.filter_map
      (function K.Kevent.Mem m -> Some m.K.Kevent.rw | _ -> None)
      events
  in
  check_bool "read then write" true (mems = [ K.Kevent.Read; K.Kevent.Write ])

let test_var_uninstrumented_silent () =
  let heap = K.Heap.create () in
  let ctx = K.Ctx.create () in
  let v = K.Var.alloc heap ~name:"a" ~instrumented:false 0 in
  let events = collect_events ctx (fun () -> K.Var.write ctx v 9) in
  check_int "no events" 0 (List.length events)

let test_var_irq_filtered () =
  let heap = K.Heap.create () in
  let ctx = K.Ctx.create () in
  let v = K.Var.alloc heap ~name:"a" 0 in
  let events =
    collect_events ctx (fun () ->
        K.Ctx.with_irq ctx (fun () -> K.Var.write ctx v 9))
  in
  check_int "irq accesses hidden" 0 (List.length events)

(* --- kfun --------------------------------------------------------------- *)

let test_kfun_stack_balance () =
  let ctx = K.Ctx.create () in
  let f1 = K.Kfun.register "test_f1" in
  let f2 = K.Kfun.register "test_f2" in
  K.Kfun.call ctx f1 (fun () ->
      check_int "inner" f1 (K.Ctx.innermost ctx);
      K.Kfun.call ctx f2 (fun () ->
          check_int "nested" f2 (K.Ctx.innermost ctx);
          check_int "caller" f1 (K.Ctx.caller ctx)));
  check_int "balanced" 0 (List.length ctx.K.Ctx.stack)

let test_kfun_stack_on_exception () =
  let ctx = K.Ctx.create () in
  let f1 = K.Kfun.register "test_exn" in
  (try K.Kfun.call ctx f1 (fun () -> failwith "boom") with Failure _ -> ());
  check_int "stack restored after exception" 0 (List.length ctx.K.Ctx.stack)

let test_kfun_register_idempotent () =
  check_int "same id" (K.Kfun.register "test_same") (K.Kfun.register "test_same")

(* --- clock -------------------------------------------------------------- *)

let test_clock_advances () =
  let k = buggy () in
  let t0 = K.State.now k in
  K.Clock.tick k.K.State.ctx k.K.State.clock;
  check_bool "monotonic" true (K.State.now k > t0)

let test_clock_base_shift () =
  let k = buggy () in
  K.Clock.set_base k.K.State.clock 123_456;
  check_int "based" 123_456 (K.State.now k)

(* --- namespaces / processes --------------------------------------------- *)

let test_namespace_put_get () =
  let ns = K.Namespace.put K.Namespace.initial K.Namespace.Net 5 in
  check_int "net set" 5 ns.K.Namespace.net;
  check_int "pid untouched" 0 ns.K.Namespace.pid

let test_namespace_flags_distinct () =
  let flags = List.map K.Namespace.kind_flag K.Namespace.all_kinds in
  check_int "distinct bits" (List.length flags)
    (List.length (List.sort_uniq Int.compare flags))

let test_containers_get_fresh_namespaces () =
  let k, s, r = with_containers () in
  let ps = K.Proctab.find_exn k.K.State.ctx k.K.State.procs s in
  let pr = K.Proctab.find_exn k.K.State.ctx k.K.State.procs r in
  check_bool "different netns" true
    (ps.K.Proctab.ns.K.Namespace.net <> pr.K.Proctab.ns.K.Namespace.net);
  check_bool "not initial" true (ps.K.Proctab.ns.K.Namespace.net <> 0)

let test_host_container_keeps_initial_ns () =
  let k = buggy () in
  let h = K.State.spawn_container ~host:true k in
  let ph = K.Proctab.find_exn k.K.State.ctx k.K.State.procs h in
  check_int "initial mount ns" 0 ph.K.Proctab.ns.K.Namespace.mount

let test_unshare_selective () =
  let k = buggy () in
  let pid = K.State.spawn_container ~host:true k in
  let results = run k pid "r0 = unshare(16)" (* CLONE_NEWNET *) in
  check_int "ok" 0 (last_ret results).K.Sysret.ret;
  let p = K.Proctab.find_exn k.K.State.ctx k.K.State.procs pid in
  check_bool "net unshared" true (p.K.Proctab.ns.K.Namespace.net <> 0);
  check_int "uts kept" 0 p.K.Proctab.ns.K.Namespace.uts

let test_fd_numbers_per_process () =
  let k, s, r = with_containers () in
  let rs = run k s "r0 = socket(1)" in
  let rr = run k r "r0 = socket(1)" in
  check_int "same fd number" (last_ret rs).K.Sysret.ret
    (last_ret rr).K.Sysret.ret

(* --- subsystem: packet / ptype (bug #1) ---------------------------------- *)

let read_proc k pid path =
  last_str (run k pid (Printf.sprintf "r0 = open(%S)\nr1 = read(r0)" path))

let test_ptype_leak_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(3)" in
  let content = read_proc k r "/proc/net/ptype" in
  check_bool "foreign socket leaked" true
    (String.length content > String.length "Type Device      Function")

let test_ptype_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(3)" in
  let content = read_proc k r "/proc/net/ptype" in
  check_string "header only" "Type Device      Function" content

let test_ptype_own_socket_visible () =
  let k, _, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k r "r0 = socket(3)" in
  let content = read_proc k r "/proc/net/ptype" in
  check_bool "own socket shown" true
    (String.length content > String.length "Type Device      Function")

let test_ptype_close_unregisters () =
  let k, _, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k r "r0 = socket(3)\nr1 = close(r0)" in
  let content = read_proc k r "/proc/net/ptype" in
  check_string "unregistered" "Type Device      Function" content

(* --- subsystem: flow labels (bugs #2/#4) --------------------------------- *)

let test_flowlabel_dos_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(9)\nr1 = flowlabel_request(r0, 3, 1)" in
  let results = run k r "r0 = socket(9)\nr1 = send(r0, 8, 2)" in
  check_string "send rejected" "ENOENT" (errno_of results)

let test_flowlabel_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(9)\nr1 = flowlabel_request(r0, 3, 1)" in
  let results = run k r "r0 = socket(9)\nr1 = send(r0, 8, 2)" in
  check_int "send ok" 8 (last_ret results).K.Sysret.ret

let test_flowlabel_connect_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(9)\nr1 = flowlabel_request(r0, 3, 1)" in
  let results = run k r "r0 = socket(9)\nr1 = connect(r0, 1000, 2)" in
  check_string "connect rejected" "ENOENT" (errno_of results)

let test_flowlabel_registered_label_works () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(9)\nr1 = flowlabel_request(r0, 3, 1)" in
  let results =
    run k r "r0 = socket(9)\nr1 = flowlabel_request(r0, 2, 1)\nr2 = send(r0, 8, 2)"
  in
  check_int "self-registered label ok" 8 (last_ret results).K.Sysret.ret

let test_flowlabel_no_label_always_ok () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(9)\nr1 = flowlabel_request(r0, 3, 1)" in
  let results = run k r "r0 = socket(9)\nr1 = send(r0, 8, 0)" in
  check_int "label 0 ok" 8 (last_ret results).K.Sysret.ret

let test_flowlabel_duplicate_registration () =
  let k, _, r = with_containers () in
  let results =
    run k r
      "r0 = socket(9)\nr1 = flowlabel_request(r0, 3, 1)\nr2 = flowlabel_request(r0, 3, 1)"
  in
  check_string "duplicate rejected" "EEXIST" (errno_of results)

(* --- subsystem: RDS (bug #3) --------------------------------------------- *)

let test_rds_bind_conflict_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(4)\nr1 = bind(r0, 1003)" in
  let results = run k r "r0 = socket(4)\nr1 = bind(r0, 1003)" in
  check_string "cross-container conflict" "EADDRINUSE" (errno_of results)

let test_rds_bind_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(4)\nr1 = bind(r0, 1003)" in
  let results = run k r "r0 = socket(4)\nr1 = bind(r0, 1003)" in
  check_int "bind ok" 0 (last_ret results).K.Sysret.ret

let test_rds_bind_same_ns_conflict () =
  let k, _, r = with_containers ~config:(K.Config.fixed ()) () in
  let results =
    run k r "r0 = socket(4)\nr1 = bind(r0, 1003)\nr2 = socket(4)\nr3 = bind(r2, 1003)"
  in
  check_string "same-ns conflict stays" "EADDRINUSE" (errno_of results)

(* --- subsystem: SCTP / cookies (bugs #6/#7) ------------------------------- *)

let test_sctp_assoc_shifts_buggy () =
  let k, s, r = with_containers () in
  let before = last_ret (run k r "r0 = socket(5)\nr1 = sctp_assoc(r0)") in
  let _ = run k s "r0 = socket(5)\nr1 = sctp_assoc(r0)" in
  let after = last_ret (run k r "r0 = socket(5)\nr1 = sctp_assoc(r0)") in
  check_bool "ids shifted by sender" true
    (after.K.Sysret.ret - before.K.Sysret.ret > 1)

let test_sctp_assoc_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(5)\nr1 = sctp_assoc(r0)" in
  let first = last_ret (run k r "r0 = socket(5)\nr1 = sctp_assoc(r0)") in
  check_int "receiver space starts at 1" 1 first.K.Sysret.ret

let test_cookie_stable_per_socket () =
  let k, _, r = with_containers () in
  let results =
    run k r "r0 = socket(1)\nr1 = get_cookie(r0)\nr2 = get_cookie(r0)"
  in
  match results with
  | [ _; c1; c2 ] ->
    check_int "idempotent" c1.K.Interp.ret.K.Sysret.ret
      c2.K.Interp.ret.K.Sysret.ret
  | _ -> Alcotest.fail "expected three results"

let test_cookie_global_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(1)\nr1 = get_cookie(r0)" in
  let c = last_ret (run k r "r0 = socket(1)\nr1 = get_cookie(r0)") in
  check_int "sender consumed cookie 1" 2 c.K.Sysret.ret

let test_cookie_perns_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(1)\nr1 = get_cookie(r0)" in
  let pr = K.Proctab.find_exn k.K.State.ctx k.K.State.procs r in
  let c = last_ret (run k r "r0 = socket(1)\nr1 = get_cookie(r0)") in
  check_int "per-ns cookie space"
    ((pr.K.Proctab.ns.K.Namespace.net * 1_000_000) + 1)
    c.K.Sysret.ret

(* --- subsystem: protomem / sockstat (bugs #5/#8/#9) ----------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_sockstat_counts_foreign_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(1)" in
  let content = read_proc k r "/proc/net/sockstat" in
  check_bool "foreign TCP socket counted" true
    (contains ~needle:"TCP: inuse 1" content)

let test_sockstat_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(1)" in
  let content = read_proc k r "/proc/net/sockstat" in
  check_bool "own count zero" true (contains ~needle:"TCP: inuse 0" content)

let test_protomem_leaks_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(2)\nr1 = alloc_protomem(r0, 160)" in
  let content = read_proc k r "/proc/net/sockstat" in
  check_bool "foreign memory visible" true (contains ~needle:"mem 10" content)

let test_protocols_leaks_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(2)\nr1 = alloc_protomem(r0, 160)" in
  let content = read_proc k r "/proc/net/protocols" in
  check_bool "foreign memory visible" true (contains ~needle:"10" content)

let test_protocols_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = socket(2)\nr1 = alloc_protomem(r0, 160)" in
  let content = read_proc k r "/proc/net/protocols" in
  check_bool "no foreign memory" false (contains ~needle:"10" content)

(* --- subsystem: conntrack (bugs D/F) -------------------------------------- *)

let test_conntrack_max_global_buggy () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = sysctl_write(\"net/nf_conntrack_max\", 9)" in
  let v = last_ret (run k r "r0 = sysctl_read(\"net/nf_conntrack_max\")") in
  check_int "leaked write" 9 v.K.Sysret.ret

let test_conntrack_max_perns_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = sysctl_write(\"net/nf_conntrack_max\", 9)" in
  let v = last_ret (run k r "r0 = sysctl_read(\"net/nf_conntrack_max\")") in
  check_int "default kept" 65536 v.K.Sysret.ret

let test_conntrack_dump_nondeterministic () =
  (* The dump must differ across clock bases even with no sender — the
     property that makes known bug F undetectable. *)
  let config = K.Config.for_known_bug K.Bugs.KF_conntrack_dump in
  let k, _, r = with_containers ~config () in
  let snap = K.State.snapshot k in
  K.Clock.set_base k.K.State.clock 1_000_000;
  let a = read_proc k r "/proc/net/nf_conntrack" in
  K.State.restore k snap;
  K.Clock.set_base k.K.State.clock 1_005_923;
  let b = read_proc k r "/proc/net/nf_conntrack" in
  check_bool "time-dependent content" false (String.equal a b)

let test_somaxconn_global_by_design () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = sysctl_write(\"net/somaxconn\", 7)" in
  let v = last_ret (run k r "r0 = sysctl_read(\"net/somaxconn\")") in
  check_int "global sysctl" 7 v.K.Sysret.ret

(* --- subsystem: uevents (bug B) ------------------------------------------ *)

let test_uevent_broadcast_buggy () =
  let config = K.Config.for_known_bug K.Bugs.KB_uevent in
  let k, s, r = with_containers ~config () in
  let _ = run k s "r0 = netdev_create(\"veth0\")" in
  let events = last_lines (run k r "r0 = socket(8)\nr1 = uevent_recv(r0)") in
  check_int "foreign queue uevents received" 2 (List.length events)

let test_uevent_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = netdev_create(\"veth0\")" in
  let events = last_lines (run k r "r0 = socket(8)\nr1 = uevent_recv(r0)") in
  check_int "no foreign uevents" 0 (List.length events)

let test_uevent_own_events_delivered () =
  let k, _, r = with_containers ~config:(K.Config.fixed ()) () in
  let events =
    last_lines
      (run k r "r0 = socket(8)\nr1 = netdev_create(\"veth1\")\nr2 = uevent_recv(r0)")
  in
  check_int "own uevents" 2 (List.length events)

let test_netdev_duplicate_name () =
  let k, _, r = with_containers () in
  let results = run k r "r0 = netdev_create(\"v0\")\nr1 = netdev_create(\"v0\")" in
  check_string "duplicate rejected" "EEXIST" (errno_of results)

(* --- subsystem: ipvs (bug C) ---------------------------------------------- *)

let test_ipvs_leak_buggy () =
  let config = K.Config.for_known_bug K.Bugs.KC_ipvs in
  let k, s, r = with_containers ~config () in
  let _ = run k s "r0 = ipvs_add_service(1080)" in
  let content = read_proc k r "/proc/net/ip_vs" in
  check_bool "foreign service listed" true (contains ~needle:"0438" content)

let test_ipvs_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = ipvs_add_service(1080)" in
  let content = read_proc k r "/proc/net/ip_vs" in
  check_bool "no foreign service" false (contains ~needle:"0438" content)

(* --- subsystem: priorities (bug A) ----------------------------------------- *)

let test_prio_user_crosses_ns_buggy () =
  let config = K.Config.for_known_bug K.Bugs.KA_prio_user in
  let k, s, r = with_containers ~config () in
  let _ = run k s "r0 = setpriority(2, 1000, 5)" in
  let v = last_ret (run k r "r0 = getpriority(2, 1000)") in
  check_int "foreign nice visible" 15 v.K.Sysret.ret

let test_prio_user_isolated_fixed () =
  let k, s, r = with_containers ~config:(K.Config.fixed ()) () in
  let _ = run k s "r0 = setpriority(2, 1000, 5)" in
  let v = last_ret (run k r "r0 = getpriority(2, 1000)") in
  check_int "default nice" 20 v.K.Sysret.ret

let test_prio_process_isolated () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = setpriority(0, 0, 5)" in
  let v = last_ret (run k r "r0 = getpriority(0, 0)") in
  check_int "per-process" 20 v.K.Sysret.ret

(* --- subsystems: uts / ipc (negative controls) ----------------------------- *)

let test_uts_isolated () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = sethostname(\"attacker\")" in
  let name = last_str (run k r "r0 = gethostname()") in
  check_string "hostname isolated" "(none)" name

let test_uts_own_hostname () =
  let k, _, r = with_containers () in
  let name = last_str (run k r "r0 = sethostname(\"mine\")\nr1 = gethostname()") in
  check_string "own hostname" "mine" name

let test_ipc_isolated () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = msgget(101)\nr1 = msgsnd(r0, \"secret\")" in
  let results = run k r "r0 = msgget(101)\nr1 = msgrcv(r0)" in
  check_string "queue empty across ns" "ENOENT" (errno_of results)

let test_ipc_same_ns_delivery () =
  let k, _, r = with_containers () in
  let msg =
    last_str (run k r "r0 = msgget(101)\nr1 = msgsnd(r0, \"hi\")\nr2 = msgrcv(r0)")
  in
  check_string "delivered" "hi" msg

let test_ipc_qids_per_ns () =
  let k, s, r = with_containers () in
  let qs = last_ret (run k s "r0 = msgget(101)") in
  let qr = last_ret (run k r "r0 = msgget(101)") in
  check_bool "distinct queues" true (qs.K.Sysret.ret <> qr.K.Sysret.ret)

(* --- subsystem: mounts / io_uring (bug E) ----------------------------------- *)

let test_iouring_escapes_buggy () =
  let config = K.Config.for_known_bug K.Bugs.KE_iouring_mount in
  let k = K.State.boot config in
  let host = K.State.spawn_container ~host:true k in
  let r = K.State.spawn_container k in
  let _ = run k host "r0 = creat(\"/tmp/kit0\")" in
  let content = last_str (run k r "r0 = io_uring_read(\"/tmp/kit0\")") in
  check_string "host file visible" "data:/tmp/kit0" content

let test_iouring_confined_fixed () =
  let k = K.State.boot (K.Config.fixed ()) in
  let host = K.State.spawn_container ~host:true k in
  let r = K.State.spawn_container k in
  let _ = run k host "r0 = creat(\"/tmp/kit0\")" in
  let results = run k r "r0 = io_uring_read(\"/tmp/kit0\")" in
  check_string "confined to own mount ns" "ENOENT" (errno_of results)

let test_open_respects_mount_ns () =
  let config = K.Config.for_known_bug K.Bugs.KE_iouring_mount in
  let k = K.State.boot config in
  let host = K.State.spawn_container ~host:true k in
  let r = K.State.spawn_container k in
  let _ = run k host "r0 = creat(\"/tmp/kit0\")" in
  let results = run k r "r0 = open(\"/tmp/kit0\")" in
  check_string "regular open is confined even on buggy kernel" "ENOENT"
    (errno_of results)

let test_tmp_file_roundtrip () =
  let k, _, r = with_containers () in
  let content =
    last_str (run k r "r0 = creat(\"/tmp/kit1\")\nr1 = open(\"/tmp/kit1\")\nr2 = read(r1)")
  in
  check_string "content" "data:/tmp/kit1" content

(* --- subsystem: tokens / sock_diag (bug G) ----------------------------------- *)

let test_token_ids_salted () =
  let k1 = K.State.boot (K.Config.make ~boot_seed:1 "5.13") in
  let k2 = K.State.boot (K.Config.make ~boot_seed:2 "5.13") in
  let p1 = K.State.spawn_container k1 in
  let p2 = K.State.spawn_container k2 in
  let t1 = last_ret (run k1 p1 "r0 = token_create()") in
  let t2 = last_ret (run k2 p2 "r0 = token_create()") in
  check_bool "per-boot randomised" true (t1.K.Sysret.ret <> t2.K.Sysret.ret);
  check_bool "far from small constants" true (t1.K.Sysret.ret > 0x1000)

let test_sock_diag_constants_miss () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(6)" in
  let results = run k r "r0 = sock_diag(3)" in
  check_string "small ids never hit" "ENOENT" (errno_of results)

(* --- procfs / devid / crypto / slab ------------------------------------------ *)

let test_procfs_fstat_shape () =
  let k, _, r = with_containers () in
  let st = last_stat (run k r "r0 = open(\"/proc/net/sockstat\")\nr1 = fstat(r0)") in
  check_int "procfs size 0" 0 st.K.Sysret.size;
  check_bool "mtime is time of stat" true (st.K.Sysret.mtime > 0)

let test_devid_minor_global () =
  let k, s, r = with_containers () in
  let snap = K.State.snapshot k in
  let st_solo =
    last_stat (run k r "r0 = open(\"/proc/net/sockstat\")\nr1 = fstat(r0)")
  in
  K.State.restore k snap;
  let _ = run k s "r0 = open(\"/proc/net/ptype\")" in
  let st_after =
    last_stat (run k r "r0 = open(\"/proc/net/sockstat\")\nr1 = fstat(r0)")
  in
  check_bool "sender shifted the global minor counter" true
    (st_solo.K.Sysret.dev_minor <> st_after.K.Sysret.dev_minor)

let test_crypto_registry_global () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(7)\nr1 = af_alg_bind(r0, \"cbc\")" in
  let content = read_proc k r "/proc/crypto" in
  check_bool "global registry by design" true (contains ~needle:"cbc" content)

let test_crypto_duplicate_registration () =
  let k, s, r = with_containers () in
  let _ = run k s "r0 = socket(7)\nr1 = af_alg_bind(r0, \"cbc\")" in
  let results = run k r "r0 = socket(7)\nr1 = af_alg_bind(r0, \"cbc\")" in
  check_string "duplicate rejected globally" "EEXIST" (errno_of results)

let test_slabinfo_reflects_allocations () =
  let k, s, r = with_containers () in
  let snap = K.State.snapshot k in
  let before = read_proc k r "/proc/slabinfo" in
  K.State.restore k snap;
  let _ = run k s "r0 = socket(1)\nr1 = msgget(101)" in
  let after = read_proc k r "/proc/slabinfo" in
  check_bool "slab counter moved" false (String.equal before after)

(* --- syscall layer: errors ---------------------------------------------------- *)

let test_ebadf () =
  let k, _, r = with_containers () in
  check_string "read" "EBADF" (errno_of (run k r "r0 = read(99)"));
  check_string "close" "EBADF" (errno_of (run k r "r0 = close(99)"));
  check_string "bind" "EBADF" (errno_of (run k r "r0 = bind(99, 1000)"))

let test_einval_args () =
  let k, _, r = with_containers () in
  check_string "socket bad domain" "EINVAL" (errno_of (run k r "r0 = socket(77)"));
  check_string "missing args" "EINVAL" (errno_of (run k r "r0 = socket()"))

let test_eopnotsupp () =
  let k, _, r = with_containers () in
  check_string "sctp_assoc on tcp" "EOPNOTSUPP"
    (errno_of (run k r "r0 = socket(1)\nr1 = sctp_assoc(r0)"));
  check_string "flowlabel on tcp" "EOPNOTSUPP"
    (errno_of (run k r "r0 = socket(1)\nr1 = flowlabel_request(r0, 1, 1)"))

let test_open_missing () =
  let k, _, r = with_containers () in
  check_string "bogus proc file" "ENOENT"
    (errno_of (run k r "r0 = open(\"/proc/bogus\")"));
  check_string "missing tmp file" "ENOENT"
    (errno_of (run k r "r0 = open(\"/tmp/nope\")"))

let test_sysctl_unknown () =
  let k, _, r = with_containers () in
  check_string "unknown sysctl" "ENOENT"
    (errno_of (run k r "r0 = sysctl_read(\"net/bogus\")"))

(* --- interpreter ---------------------------------------------------------------- *)

let test_interp_ref_resolution () =
  let k, _, r = with_containers () in
  let results = run k r "r0 = socket(1)\nr1 = get_cookie(r0)" in
  check_int "cookie obtained" 1 (last_ret results).K.Sysret.ret

let test_interp_failed_ref_yields_ebadf () =
  let k, _, r = with_containers () in
  (* call 0 fails (bad domain), so r0 resolves to a negative fd *)
  let results = run k r "r0 = socket(77)\nr1 = get_cookie(r0)" in
  check_string "cascaded failure" "EBADF" (errno_of results)

let test_interp_result_count () =
  let k, _, r = with_containers () in
  let results = run k r "r0 = getpid()\nr1 = getpid()\nr2 = getpid()" in
  check_int "all calls executed" 3 (List.length results)

let test_interp_deterministic_from_snapshot () =
  let k, _, r = with_containers () in
  let snap = K.State.snapshot k in
  let text = "r0 = socket(1)\nr1 = get_cookie(r0)\nr2 = sctp_assoc(r1)" in
  let a = run k r text in
  K.State.restore k snap;
  let b = run k r text in
  let rets rs = List.map (fun x -> x.K.Interp.ret.K.Sysret.ret) rs in
  check (Alcotest.list Alcotest.int) "identical replay" (rets a) (rets b)

let test_snapshot_isolates_executions () =
  let k, s, r = with_containers () in
  let snap = K.State.snapshot k in
  let _ = run k s "r0 = socket(3)" in
  K.State.restore k snap;
  let content = read_proc k r "/proc/net/ptype" in
  check_string "state fully rolled back" "Type Device      Function" content

let test_bugs_for_version () =
  let b513 = K.Bugs.for_version "5.13" in
  check_bool "new bugs present" true (K.Bugs.present b513 K.Bugs.B1_ptype_leak);
  check_bool "KD present" true (K.Bugs.present b513 K.Bugs.KD_conntrack_max);
  check_bool "KA absent" false (K.Bugs.present b513 K.Bugs.KA_prio_user);
  let b44 = K.Bugs.for_version "4.4" in
  check_bool "KA present in 4.4" true (K.Bugs.present b44 K.Bugs.KA_prio_user);
  check_bool "B1 absent in 4.4" false (K.Bugs.present b44 K.Bugs.B1_ptype_leak)

let test_bugs_fix_inject () =
  check_bool "fixed" false
    (K.Config.has (K.Config.fixed ()) K.Bugs.B1_ptype_leak);
  let set = K.Bugs.for_version "5.13" in
  let set = K.Bugs.inject set K.Bugs.KA_prio_user in
  check_bool "injected" true (K.Bugs.present set K.Bugs.KA_prio_user)

let suite =
  [
    Alcotest.test_case "var: snapshot/restore roundtrip" `Quick
      test_var_snapshot_roundtrip;
    Alcotest.test_case "var: unique addresses" `Quick test_var_addresses_unique;
    Alcotest.test_case "heap: cross-heap restore rejected" `Quick
      test_restore_rejects_foreign_snapshot;
    Alcotest.test_case "heap: incremental restore stats" `Quick
      test_restore_incremental_stats;
    Alcotest.test_case "var: traced accesses" `Quick test_var_traced_access;
    Alcotest.test_case "var: uninstrumented is silent" `Quick
      test_var_uninstrumented_silent;
    Alcotest.test_case "var: irq accesses filtered" `Quick test_var_irq_filtered;
    Alcotest.test_case "kfun: stack balance" `Quick test_kfun_stack_balance;
    Alcotest.test_case "kfun: stack restored on exception" `Quick
      test_kfun_stack_on_exception;
    Alcotest.test_case "kfun: registration idempotent" `Quick
      test_kfun_register_idempotent;
    Alcotest.test_case "clock: advances on tick" `Quick test_clock_advances;
    Alcotest.test_case "clock: base shift" `Quick test_clock_base_shift;
    Alcotest.test_case "namespace: put/get" `Quick test_namespace_put_get;
    Alcotest.test_case "namespace: distinct clone flags" `Quick
      test_namespace_flags_distinct;
    Alcotest.test_case "containers: fresh namespaces" `Quick
      test_containers_get_fresh_namespaces;
    Alcotest.test_case "containers: host keeps initial ns" `Quick
      test_host_container_keeps_initial_ns;
    Alcotest.test_case "unshare: selective flags" `Quick test_unshare_selective;
    Alcotest.test_case "fds: numbered per process" `Quick
      test_fd_numbers_per_process;
    Alcotest.test_case "ptype: leaks on buggy kernel (#1)" `Quick
      test_ptype_leak_buggy;
    Alcotest.test_case "ptype: isolated on fixed kernel" `Quick
      test_ptype_isolated_fixed;
    Alcotest.test_case "ptype: own socket visible" `Quick
      test_ptype_own_socket_visible;
    Alcotest.test_case "ptype: close unregisters" `Quick
      test_ptype_close_unregisters;
    Alcotest.test_case "flowlabel: send DoS on buggy kernel (#2)" `Quick
      test_flowlabel_dos_buggy;
    Alcotest.test_case "flowlabel: isolated on fixed kernel" `Quick
      test_flowlabel_isolated_fixed;
    Alcotest.test_case "flowlabel: connect DoS on buggy kernel (#4)" `Quick
      test_flowlabel_connect_buggy;
    Alcotest.test_case "flowlabel: registered label still works" `Quick
      test_flowlabel_registered_label_works;
    Alcotest.test_case "flowlabel: label 0 always admissible" `Quick
      test_flowlabel_no_label_always_ok;
    Alcotest.test_case "flowlabel: duplicate registration" `Quick
      test_flowlabel_duplicate_registration;
    Alcotest.test_case "rds: cross-container bind conflict (#3)" `Quick
      test_rds_bind_conflict_buggy;
    Alcotest.test_case "rds: isolated on fixed kernel" `Quick
      test_rds_bind_isolated_fixed;
    Alcotest.test_case "rds: same-ns conflict remains on fixed kernel" `Quick
      test_rds_bind_same_ns_conflict;
    Alcotest.test_case "sctp: assoc ids shift on buggy kernel (#7)" `Quick
      test_sctp_assoc_shifts_buggy;
    Alcotest.test_case "sctp: per-ns ids on fixed kernel" `Quick
      test_sctp_assoc_isolated_fixed;
    Alcotest.test_case "cookie: stable per socket" `Quick
      test_cookie_stable_per_socket;
    Alcotest.test_case "cookie: global counter on buggy kernel (#6)" `Quick
      test_cookie_global_buggy;
    Alcotest.test_case "cookie: per-ns on fixed kernel" `Quick
      test_cookie_perns_fixed;
    Alcotest.test_case "sockstat: counts foreign sockets (#5)" `Quick
      test_sockstat_counts_foreign_buggy;
    Alcotest.test_case "sockstat: isolated on fixed kernel" `Quick
      test_sockstat_isolated_fixed;
    Alcotest.test_case "protomem: leaks via sockstat (#8)" `Quick
      test_protomem_leaks_buggy;
    Alcotest.test_case "protomem: leaks via protocols (#9)" `Quick
      test_protocols_leaks_buggy;
    Alcotest.test_case "protomem: isolated on fixed kernel" `Quick
      test_protocols_isolated_fixed;
    Alcotest.test_case "conntrack: max global on buggy kernel (D)" `Quick
      test_conntrack_max_global_buggy;
    Alcotest.test_case "conntrack: max per-ns on fixed kernel" `Quick
      test_conntrack_max_perns_fixed;
    Alcotest.test_case "conntrack: dump is time-dependent (F)" `Quick
      test_conntrack_dump_nondeterministic;
    Alcotest.test_case "somaxconn: global by design" `Quick
      test_somaxconn_global_by_design;
    Alcotest.test_case "uevent: broadcast on buggy kernel (B)" `Quick
      test_uevent_broadcast_buggy;
    Alcotest.test_case "uevent: isolated on fixed kernel" `Quick
      test_uevent_isolated_fixed;
    Alcotest.test_case "uevent: own events delivered" `Quick
      test_uevent_own_events_delivered;
    Alcotest.test_case "netdev: duplicate name rejected" `Quick
      test_netdev_duplicate_name;
    Alcotest.test_case "ipvs: leaks on buggy kernel (C)" `Quick
      test_ipvs_leak_buggy;
    Alcotest.test_case "ipvs: isolated on fixed kernel" `Quick
      test_ipvs_isolated_fixed;
    Alcotest.test_case "prio: PRIO_USER crosses ns on buggy kernel (A)" `Quick
      test_prio_user_crosses_ns_buggy;
    Alcotest.test_case "prio: isolated on fixed kernel" `Quick
      test_prio_user_isolated_fixed;
    Alcotest.test_case "prio: PRIO_PROCESS isolated" `Quick
      test_prio_process_isolated;
    Alcotest.test_case "uts: hostnames isolated" `Quick test_uts_isolated;
    Alcotest.test_case "uts: own hostname" `Quick test_uts_own_hostname;
    Alcotest.test_case "ipc: queues isolated" `Quick test_ipc_isolated;
    Alcotest.test_case "ipc: same-ns delivery" `Quick test_ipc_same_ns_delivery;
    Alcotest.test_case "ipc: qids per namespace" `Quick test_ipc_qids_per_ns;
    Alcotest.test_case "io_uring: escapes mount ns on buggy kernel (E)" `Quick
      test_iouring_escapes_buggy;
    Alcotest.test_case "io_uring: confined on fixed kernel" `Quick
      test_iouring_confined_fixed;
    Alcotest.test_case "open: respects mount ns even on buggy kernel" `Quick
      test_open_respects_mount_ns;
    Alcotest.test_case "tmp: create/open/read roundtrip" `Quick
      test_tmp_file_roundtrip;
    Alcotest.test_case "tokens: per-boot randomised ids (G)" `Quick
      test_token_ids_salted;
    Alcotest.test_case "sock_diag: constants never hit (G)" `Quick
      test_sock_diag_constants_miss;
    Alcotest.test_case "procfs: fstat shape" `Quick test_procfs_fstat_shape;
    Alcotest.test_case "devid: minor counter global (FP source)" `Quick
      test_devid_minor_global;
    Alcotest.test_case "crypto: registry global by design (FP source)" `Quick
      test_crypto_registry_global;
    Alcotest.test_case "crypto: duplicate registration global" `Quick
      test_crypto_duplicate_registration;
    Alcotest.test_case "slab: slabinfo reflects allocations (UI source)" `Quick
      test_slabinfo_reflects_allocations;
    Alcotest.test_case "syscalls: EBADF" `Quick test_ebadf;
    Alcotest.test_case "syscalls: EINVAL" `Quick test_einval_args;
    Alcotest.test_case "syscalls: EOPNOTSUPP" `Quick test_eopnotsupp;
    Alcotest.test_case "syscalls: open ENOENT" `Quick test_open_missing;
    Alcotest.test_case "syscalls: unknown sysctl" `Quick test_sysctl_unknown;
    Alcotest.test_case "interp: resource resolution" `Quick
      test_interp_ref_resolution;
    Alcotest.test_case "interp: failed ref cascades to EBADF" `Quick
      test_interp_failed_ref_yields_ebadf;
    Alcotest.test_case "interp: every call produces a result" `Quick
      test_interp_result_count;
    Alcotest.test_case "interp: deterministic from snapshot" `Quick
      test_interp_deterministic_from_snapshot;
    Alcotest.test_case "snapshot: isolates executions" `Quick
      test_snapshot_isolates_executions;
    Alcotest.test_case "bugs: per-version population" `Quick
      test_bugs_for_version;
    Alcotest.test_case "bugs: fix and inject" `Quick test_bugs_fix_inject;
  ]
