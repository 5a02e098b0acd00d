(* Tests for the observability plane (lib/obs): registry mechanics,
   tracer ring buffer, JSONL encode/parse round trips, golden export
   stability, and the headline invariant — observability on or off
   never changes campaign results. *)

module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer
module Jsonl = Kit_obs.Jsonl
module Export = Kit_obs.Export
module Render = Kit_obs.Render
module Campaign = Kit_core.Campaign
module Fault = Kit_kernel.Fault

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* --- registry ------------------------------------------------------------- *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a" in
  Metrics.inc c;
  Metrics.add c 4;
  check_int "counts" 5 (Metrics.counter_value c);
  let c' = Metrics.counter r "a" in
  Metrics.inc c';
  check_int "handles are interned per name" 6 (Metrics.counter_value c);
  Metrics.set_counter c 2;
  check_int "set overwrites" 2 (Metrics.counter_value c)

let test_disabled_registry_records_nothing () =
  let r = Metrics.create ~enabled:false () in
  let c = Metrics.counter r "quiet" in
  let g = Metrics.gauge r "g" in
  let h = Metrics.histogram r "h" in
  Metrics.inc c;
  Metrics.set_gauge g 9.0;
  Metrics.observe h 3.0;
  check_int "counter silent" 0 (Metrics.counter_value c);
  check_bool "gauge silent" true (Metrics.gauge_value g = 0.0);
  check_int "histogram silent" 0 (Metrics.histogram_count h);
  let a = Metrics.counter ~always:true r "loud" in
  Metrics.inc a;
  check_int "always-on counters bypass the flag" 1 (Metrics.counter_value a)

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] r "h" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
  check_int "count" 3 (Metrics.histogram_count h);
  check_bool "sum" true (Metrics.histogram_sum h = 55.5);
  match List.assoc "h" (Metrics.snapshot r) with
  | Metrics.Hist_v { le; counts; _ } ->
    check (Alcotest.list (Alcotest.float 0.0)) "bounds" [ 1.0; 10.0 ] le;
    check (Alcotest.list Alcotest.int) "per-bucket counts (with overflow)"
      [ 1; 1; 1 ] counts
  | _ -> Alcotest.fail "expected a histogram value"

let test_snapshot_sorted_and_volatile_excluded () =
  let r = Metrics.create () in
  Metrics.inc (Metrics.counter r "z");
  Metrics.inc (Metrics.counter r "a");
  Metrics.set_gauge (Metrics.gauge ~volatile:true r "wall_s") 1.25;
  let names = List.map fst (Metrics.snapshot r) in
  check (Alcotest.list Alcotest.string) "sorted, volatile excluded"
    [ "a"; "z" ] names;
  let names_v = List.map fst (Metrics.snapshot ~volatile:true r) in
  check (Alcotest.list Alcotest.string) "volatile opt-in"
    [ "a"; "wall_s"; "z" ] names_v

let test_merge_sums_pointwise () =
  let mk n =
    let r = Metrics.create () in
    Metrics.add (Metrics.counter r "c") n;
    Metrics.set_gauge (Metrics.gauge r "g") (float_of_int n);
    Metrics.observe (Metrics.histogram r "h") (float_of_int n);
    Metrics.snapshot r
  in
  let merged = Metrics.merge [ mk 2; mk 3 ] in
  (match List.assoc "c" merged with
  | Metrics.Counter_v v -> check_int "counters sum" 5 v
  | _ -> Alcotest.fail "expected counter");
  (match List.assoc "g" merged with
  | Metrics.Gauge_v v -> check_bool "gauges sum" true (v = 5.0)
  | _ -> Alcotest.fail "expected gauge");
  match List.assoc "h" merged with
  | Metrics.Hist_v { n; sum; _ } ->
    check_int "histogram observations sum" 2 n;
    check_bool "histogram sums sum" true (sum = 5.0)
  | _ -> Alcotest.fail "expected histogram"

let test_reset_zeroes_but_keeps_names () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "c") 7;
  Metrics.reset r;
  check (Alcotest.list Alcotest.string) "names survive, values zeroed" [ "c" ]
    (List.map fst (Metrics.snapshot r));
  check_int "zeroed" 0 (Metrics.counter_value (Metrics.counter r "c"))

(* --- tracer --------------------------------------------------------------- *)

let test_span_nesting () =
  let t = Tracer.create () in
  Tracer.with_span t "outer" (fun () ->
      Tracer.with_span t "inner" (fun () -> Tracer.instant t "tick"));
  let evs = Tracer.events t in
  check (Alcotest.list Alcotest.string) "event shape"
    [ "begin outer"; "begin inner"; "instant tick"; "end inner"; "end outer" ]
    (List.map
       (fun (e : Tracer.event) ->
         Tracer.kind_to_string e.Tracer.kind ^ " " ^ e.Tracer.name)
       evs);
  check (Alcotest.list Alcotest.int) "deterministic time defaults to seq"
    [ 0; 1; 2; 3; 4 ]
    (List.map (fun (e : Tracer.event) -> e.Tracer.time) evs)

let test_ring_drops_oldest () =
  let t = Tracer.create ~cap:4 () in
  for i = 0 to 9 do
    Tracer.instant t (string_of_int i)
  done;
  check_int "recorded counts everything" 10 (Tracer.recorded t);
  check_int "dropped" 6 (Tracer.dropped t);
  check (Alcotest.list Alcotest.string) "oldest evicted first"
    [ "6"; "7"; "8"; "9" ]
    (List.map (fun (e : Tracer.event) -> e.Tracer.name) (Tracer.events t))

let test_nop_tracer_is_inert () =
  Tracer.with_span Tracer.nop "x" (fun () -> Tracer.instant Tracer.nop "y");
  check_int "nop records nothing" 0 (Tracer.recorded Tracer.nop)

let test_span_ends_on_raise () =
  let t = Tracer.create () in
  (try Tracer.with_span t "risky" (fun () -> failwith "boom")
   with Failure _ -> ());
  check (Alcotest.list Alcotest.string) "End recorded despite the raise"
    [ "begin"; "end" ]
    (List.map
       (fun (e : Tracer.event) -> Tracer.kind_to_string e.Tracer.kind)
       (Tracer.events t))

(* Satellite regression: a cap-2 ring that dropped the Begin of a
   still-open span. Spantree.build must synthesize a truncated root
   instead of crashing on the orphaned End. *)
let test_orphaned_span_survives_truncated_ring () =
  let t = Tracer.create ~cap:2 () in
  let sp = Tracer.span t "outer" in
  Tracer.instant t "mark";
  Tracer.finish t sp;
  (* ring: [instant mark; end outer] — "begin outer" was dropped *)
  check_int "begin was dropped" 1 (Tracer.dropped t);
  let tree =
    Kit_obs.Spantree.build ~dropped:(Tracer.dropped t) (Tracer.events t)
  in
  check_int "one synthesized truncated root" 1
    tree.Kit_obs.Spantree.truncated_begins;
  check_int "drop count carried through" 1 tree.Kit_obs.Spantree.dropped;
  match Kit_obs.Spantree.roots tree with
  | [ root ] ->
    check_str "root takes the orphaned End's name" "outer"
      root.Kit_obs.Spantree.n_name;
    check_bool "root flagged truncated" true root.Kit_obs.Spantree.n_truncated;
    check_int "root adopted the surviving instant" 1
      (List.length root.Kit_obs.Spantree.n_children)
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

(* k-way interleave must preserve per-ring order even when deterministic
   times rewind inside a ring (virtual-clock spans across snapshot
   restores) — a global sort would tear the Begin/End nesting apart. *)
let test_interleave_preserves_ring_order_on_rewind () =
  let r1 = Tracer.create () in
  let sp = Tracer.span r1 ~time:100 "case0" in
  Tracer.finish r1 ~time:10 sp;                 (* clock rewound *)
  let sp = Tracer.span r1 ~time:20 "case1" in
  Tracer.finish r1 ~time:30 sp;
  let r2 = Tracer.create () in
  let sp = Tracer.span r2 ~time:50 "case2" in
  Tracer.finish r2 ~time:60 sp;
  let into = Tracer.create () in
  Tracer.merge into [ Tracer.events r1; Tracer.events r2 ];
  let merged = Tracer.events into in
  let names = List.map (fun (e : Tracer.event) -> e.Tracer.name) merged in
  (* r1's internal order must survive: case0 begin, case0 end, case1 ... *)
  check (Alcotest.list Alcotest.string) "per-ring order preserved"
    [ "case2"; "case2"; "case0"; "case0"; "case1"; "case1" ]
    names;
  let tree = Kit_obs.Spantree.build merged in
  check_int "no span torn apart" 0
    (tree.Kit_obs.Spantree.truncated_begins
     + tree.Kit_obs.Spantree.unfinished)

(* --- jsonl ---------------------------------------------------------------- *)

let test_jsonl_round_trip () =
  let v =
    Jsonl.Obj
      [ ("s", Jsonl.Str "a\"b\n\\c"); ("i", Jsonl.Int (-42));
        ("f", Jsonl.Float 0.125); ("b", Jsonl.Bool true); ("n", Jsonl.Null);
        ("l", Jsonl.List [ Jsonl.Int 1; Jsonl.Float 2.5 ]) ]
  in
  match Jsonl.parse (Jsonl.to_string v) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v' -> check_str "round trip" (Jsonl.to_string v) (Jsonl.to_string v')

let test_export_round_trip () =
  let obs = Obs.create () in
  Metrics.add (Metrics.counter obs.Obs.metrics "c") 3;
  Metrics.set_gauge (Metrics.gauge obs.Obs.metrics "g") 1.5;
  Metrics.observe (Metrics.histogram obs.Obs.metrics "h") 2.0;
  Tracer.with_span obs.Obs.tracer "phase.x"
    ~attrs:[ ("k", "v") ]
    (fun () -> ());
  let lines =
    Test_traceana.export_lines ~meta:[ ("cmd", Jsonl.Str "test") ] obs
  in
  match Test_traceana.parse lines with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
    check_bool "snapshot survives" true
      (p.Export.p_snapshot = Obs.snapshot obs);
    check_int "events survive" 2 (List.length p.Export.p_events);
    check_str "meta survives" "\"test\""
      (Jsonl.to_string (List.assoc "cmd" p.Export.p_meta));
    (* the renderer accepts anything the exporter produced *)
    check_bool "stats renders" true (String.length (Render.stats p) > 0)

(* Satellite: span-event attrs that need escaping — quotes, newlines,
   tabs, control bytes, non-ASCII — must survive export → parse. *)
let test_event_attrs_escaping_round_trip () =
  let nasty =
    [ ("quoted", {|a"b\c|}); ("newline", "line1\nline2");
      ("tab", "col1\tcol2"); ("ctl", "bell\007end");
      ("utf", "h\xc3\xa9llo \xe2\x80\x94 \xc3\xbcn\xc3\xafcode") ]
  in
  let obs = Obs.create () in
  Tracer.with_span obs.Obs.tracer ~attrs:nasty "phase.nasty" (fun () ->
      Tracer.instant obs.Obs.tracer ~attrs:nasty "mark");
  match Test_traceana.parse (Test_traceana.export_lines obs) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
    check_int "all events survive" 3 (List.length p.Export.p_events);
    List.iter
      (fun (e : Tracer.event) ->
        List.iter
          (fun (k, v) ->
            check_str ("attr " ^ k ^ " survives byte-exactly") v
              (List.assoc k e.Tracer.attrs))
          nasty)
      p.Export.p_events

(* Satellite qcheck: Tracer.merge determinism — dealing the same case
   spans over any number of per-domain rings and merging yields a span
   tree with the same placement-ignoring fingerprint. *)
let prop_merge_fingerprint_invariant_in_domains =
  QCheck.Test.make
    ~name:"Tracer.merge: tree fingerprint invariant in domain count"
    ~count:30
    QCheck.(pair (int_range 1 24) (int_range 2 4))
    (fun (cases, domains) ->
      let deal domains =
        let rings = Array.init domains (fun _ -> Tracer.create ()) in
        for case = 0 to cases - 1 do
          let t = rings.(case mod domains) in
          let attrs =
            [ ("case", string_of_int case);
              ("domain", string_of_int (case mod domains)) ]
          in
          (* rewinding virtual-clock times, like real supervised spans *)
          let sp = Tracer.span t ~attrs ~time:(1000 - case) "sup.execute" in
          if case mod 3 = 0 then
            Tracer.instant t ~attrs ~time:(1000 - case) "sup.retry";
          Tracer.finish t ~time:(case * 7) sp
        done;
        let merged = Tracer.create () in
        Tracer.merge merged
          (Array.to_list (Array.map Tracer.events rings));
        let tree =
          Kit_obs.Spantree.build ~lane_attrs:[ "case" ]
            (Tracer.events merged)
        in
        ( Test_traceana.fingerprint tree,
          Test_traceana.counts (Kit_obs.Profile.of_tree tree) )
      in
      deal 1 = deal domains)

(* A hand-built registry with a pinned export: catches accidental format
   drift (field renames, float formatting, ordering changes). *)
let test_golden_export () =
  let obs = Obs.create () in
  Metrics.add (Metrics.counter obs.Obs.metrics "exec.executions") 12;
  Metrics.set_gauge (Metrics.gauge obs.Obs.metrics "sup.backoff_ms") 35.0;
  Metrics.observe
    (Metrics.histogram ~buckets:[| 1.0; 5.0 |] obs.Obs.metrics "chunk")
    2.5;
  Tracer.instant obs.Obs.tracer "sup.reboot";
  check (Alcotest.list Alcotest.string) "golden lines"
    [ {|{"k":"meta","version":1}|};
      {|{"k":"hist","name":"chunk","le":[1.0,5.0],"counts":[0,1,0],"sum":2.5,"count":1}|};
      {|{"k":"counter","name":"exec.executions","value":12}|};
      {|{"k":"gauge","name":"sup.backoff_ms","value":35.0}|};
      {|{"k":"event","seq":0,"time":0,"ev":"instant","name":"sup.reboot"}|} ]
    (Test_traceana.export_lines obs)

(* --- campaign integration ------------------------------------------------- *)

let small_options = { Campaign.default_options with Campaign.corpus_size = 48 }

let campaign_fingerprint (c : Campaign.t) =
  Marshal.to_string
    (c.Campaign.reports, c.Campaign.funnel, c.Campaign.quarantined)
    []

(* Deterministic telemetry: same seed, fresh bundle each time →
   byte-identical wall-less export. *)
let test_campaign_export_is_stable () =
  let export () =
    let c = Campaign.run small_options in
    Test_traceana.export_lines c.Campaign.obs
  in
  check (Alcotest.list Alcotest.string) "two runs, identical JSONL"
    (export ()) (export ())

let test_campaign_counters_match_results () =
  let c = Campaign.run small_options in
  let snap = Obs.snapshot c.Campaign.obs in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Metrics.Counter_v v) -> v
    | _ -> Alcotest.failf "missing counter %s" name
  in
  check_int "executions" c.Campaign.executions (counter "campaign.executions");
  check_int "reports"
    (List.length c.Campaign.reports)
    (counter "campaign.reports");
  check_int "funnel executed" c.Campaign.funnel.Kit_detect.Filter.executed
    (counter "campaign.funnel_executed");
  check_int "sup attempts mirror stats"
    c.Campaign.sup_stats.Kit_exec.Supervisor.attempts
    (counter "sup.attempts");
  check_bool "exec.executions covers diagnosis re-runs" true
    (counter "exec.executions" >= counter "campaign.executions")

let test_supervisor_metrics_under_faults () =
  let faults =
    match Fault.parse_schedule "panic:read:2" with
    | Ok s -> s
    | Error e -> Alcotest.failf "parse_schedule: %s" e
  in
  let c = Campaign.run { small_options with Campaign.faults } in
  let snap = Obs.snapshot c.Campaign.obs in
  (match List.assoc_opt "sup.retries" snap with
  | Some (Metrics.Counter_v v) ->
    check_int "retries mirrored"
      c.Campaign.sup_stats.Kit_exec.Supervisor.retries v
  | _ -> Alcotest.fail "missing sup.retries");
  check_bool "retry instants traced" true
    (List.exists
       (fun (e : Tracer.event) -> e.Tracer.name = "sup.retry")
       (Tracer.events c.Campaign.obs.Obs.tracer))

let test_syscall_dispatch_counters () =
  Metrics.reset Metrics.default;
  Metrics.set_enabled Metrics.default true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled Metrics.default false;
      Metrics.reset Metrics.default)
    (fun () ->
      let _ = Campaign.run small_options in
      let dispatched =
        List.filter_map
          (function
            | name, Metrics.Counter_v v
              when String.length name > 8
                   && String.sub name 0 8 = "syscall." ->
              Some (name, v)
            | _ -> None)
          (Metrics.snapshot Metrics.default)
      in
      check_bool "per-sysno counters populated" true
        (List.exists (fun (_, v) -> v > 0) dispatched))

(* The headline invariant: recording metrics and spans — including the
   global default registry — never changes reports, funnel or
   quarantine. *)
let prop_observability_never_changes_results =
  QCheck.Test.make
    ~name:"observability on/off never changes campaign results" ~count:4
    QCheck.(int_bound 8)
    (fun intensity ->
      let faults =
        Fault.schedule_of_seed ~seed:small_options.Campaign.seed ~intensity
      in
      let run obs =
        Metrics.reset Metrics.default;
        Metrics.set_enabled Metrics.default (obs <> None);
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled Metrics.default false;
            Metrics.reset Metrics.default)
          (fun () ->
            Campaign.run { small_options with Campaign.faults; obs })
      in
      let off = run None in
      let on = run (Some (Obs.create ())) in
      campaign_fingerprint off = campaign_fingerprint on)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "disabled registry records nothing" `Quick
      test_disabled_registry_records_nothing;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "snapshots sorted, volatile excluded" `Quick
      test_snapshot_sorted_and_volatile_excluded;
    Alcotest.test_case "merge sums point-wise" `Quick test_merge_sums_pointwise;
    Alcotest.test_case "reset zeroes but keeps names" `Quick
      test_reset_zeroes_but_keeps_names;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
    Alcotest.test_case "nop tracer is inert" `Quick test_nop_tracer_is_inert;
    Alcotest.test_case "span ends on raise" `Quick test_span_ends_on_raise;
    Alcotest.test_case "orphaned span survives truncated ring" `Quick
      test_orphaned_span_survives_truncated_ring;
    Alcotest.test_case "interleave preserves ring order on rewind" `Quick
      test_interleave_preserves_ring_order_on_rewind;
    Alcotest.test_case "event attrs escaping round trip" `Quick
      test_event_attrs_escaping_round_trip;
    QCheck_alcotest.to_alcotest prop_merge_fingerprint_invariant_in_domains;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "export round trip" `Quick test_export_round_trip;
    Alcotest.test_case "golden export" `Quick test_golden_export;
    Alcotest.test_case "campaign export is stable" `Quick
      test_campaign_export_is_stable;
    Alcotest.test_case "campaign counters match results" `Quick
      test_campaign_counters_match_results;
    Alcotest.test_case "supervisor metrics under faults" `Quick
      test_supervisor_metrics_under_faults;
    Alcotest.test_case "syscall dispatch counters" `Quick
      test_syscall_dispatch_counters;
    QCheck_alcotest.to_alcotest prop_observability_never_changes_results;
  ]
