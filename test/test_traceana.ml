(* Tests for the trace-analysis engine (Obs.Spantree / Obs.Profile) and
   its integration with the campaign: tree reconstruction, profile
   aggregation, critical paths, Chrome export shape, streaming export
   folds, the gauge/span equality bridge, and the headline qcheck —
   span tree and profile are invariant in the execute phase's domain
   count. *)

module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer
module Jsonl = Kit_obs.Jsonl
module Export = Kit_obs.Export
module Spantree = Kit_obs.Spantree
module Profile = Kit_obs.Profile
module Campaign = Kit_core.Campaign

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* A bundle's full JSONL export (metrics + trace events), as the CLI
   writes it. Deterministic unless [~wall:true]. *)
let export_lines ?(wall = false) ?meta (obs : Obs.t) =
  Export.lines ~wall ?meta
    ~events:(Tracer.events obs.Obs.tracer)
    ~dropped:(Tracer.dropped obs.Obs.tracer)
    (Metrics.snapshot ~volatile:wall obs.Obs.metrics)

(* [lines] through an export file, read back as `kit stats` reads it. *)
let parse lines =
  let path = Filename.temp_file "kit-export" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_file path lines;
      Export.read_file path)

(* A canonical digest of a span tree's causal structure: span names,
   attributes and nesting, with placement-dependent identity (which
   domain/worker lane a span landed on, timestamps, sequence numbers)
   excluded. Two traces of the same campaign at different --domains
   values digest identically — the work is the same, only its placement
   moved. *)
let fingerprint (t : Spantree.t) =
  let ignore = [ "domain"; "worker"; "domains" ] in
  let rec node_digest buf (n : Spantree.node) =
    Buffer.add_string buf (if n.Spantree.n_instant then "i:" else "s:");
    Buffer.add_string buf n.Spantree.n_name;
    List.iter
      (fun (k, v) ->
        if not (List.mem k ignore) then begin
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          Buffer.add_string buf v
        end)
      (List.sort compare n.Spantree.n_attrs);
    Buffer.add_char buf '(';
    List.iter (node_digest buf) n.Spantree.n_children;
    Buffer.add_char buf ')'
  in
  let buf = Buffer.create 1024 in
  (* Lanes sorted by key so lane discovery order cannot leak in; keys
     made of ignored attrs collapse into one sorted root sequence. *)
  let keyed =
    List.map
      (fun (key, roots) ->
        let b = Buffer.create 256 in
        List.iter (node_digest b) roots;
        let lane_ignored =
          List.exists
            (fun a -> String.length key > String.length a
                      && String.sub key 0 (String.length a + 1) = a ^ "=")
            ignore
        in
        ((if lane_ignored then Spantree.main_lane else key), Buffer.contents b))
      t.Spantree.lanes
  in
  List.iter
    (fun (key, digest) ->
      Buffer.add_char buf '[';
      Buffer.add_string buf key;
      Buffer.add_char buf ']';
      Buffer.add_string buf digest)
    (List.sort compare keyed);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A profile's row for a span name. *)
let find (p : Profile.t) name =
  List.find_opt (fun r -> String.equal r.Profile.r_name name) p.Profile.rows

(* Per-name span counts, the placement-invariant part of a profile. *)
let counts (p : Profile.t) =
  List.sort compare (List.map (fun r -> (r.Profile.r_name, r.Profile.r_count)) p.Profile.rows)

(* A hand-built trace: two top-level phases, the second containing two
   case spans on distinct worker lanes plus an instant. Wall times are
   explicit so duration arithmetic is exact. *)
let sample_events () =
  let t = Tracer.create () in
  let sp = Tracer.span t ~time:0 ~wall:10.0 "phase.profile" in
  Tracer.finish t ~time:5 ~wall:12.0 sp;
  let sp = Tracer.span t ~time:5 ~wall:12.0 "phase.execute" in
  let c0 =
    Tracer.span t ~time:6 ~wall:12.5 "sup.execute"
      ~attrs:[ ("case", "0"); ("worker", "0") ]
  in
  Tracer.finish t ~time:8 ~wall:13.5 c0;
  let c1 =
    Tracer.span t ~time:8 ~wall:13.5 "sup.execute"
      ~attrs:[ ("case", "1"); ("worker", "1") ]
  in
  Tracer.instant t ~time:9 ~wall:13.75 "sup.retry"
    ~attrs:[ ("worker", "1") ];
  Tracer.finish t ~time:10 ~wall:17.5 c1;
  Tracer.finish t ~time:12 ~wall:18.0 sp;
  Tracer.events t

let test_tree_reconstruction () =
  let tree = Spantree.build ~lane_attrs:[] (sample_events ()) in
  (* no lane split: everything nests in one "main" lane *)
  check_int "one lane" 1 (List.length tree.Spantree.lanes);
  check_int "four spans" 4 tree.Spantree.spans;
  check_int "one instant" 1 tree.Spantree.instants;
  check_int "nothing truncated" 0 tree.Spantree.truncated_begins;
  check_int "nothing unfinished" 0 tree.Spantree.unfinished;
  match Spantree.roots tree with
  | [ profile; execute ] ->
    check_str "first root" "phase.profile" profile.Spantree.n_name;
    check_int "profile childless" 0 (List.length profile.Spantree.n_children);
    check_int "execute has two case children" 2
      (List.length execute.Spantree.n_children);
    (match List.rev execute.Spantree.n_children with
    | c1 :: _ ->
      check_int "instant nests in the open case span" 1
        (List.length c1.Spantree.n_children)
    | [] -> Alcotest.fail "no case children");
    check_int "execute det duration" 7 (Spantree.det_duration execute);
    check_bool "execute wall duration" true
      (Spantree.wall_duration execute = 6.0)
  | roots -> Alcotest.failf "expected 2 roots, got %d" (List.length roots)

let test_lane_split_by_worker () =
  let tree = Spantree.build (sample_events ()) in
  (* default lanes: domain/worker — case spans leave the main lane *)
  let keys = List.map fst tree.Spantree.lanes in
  check
    (Alcotest.list Alcotest.string)
    "lanes in first-seen order"
    [ "main"; "worker=0"; "worker=1" ]
    keys;
  let main = List.assoc "main" tree.Spantree.lanes in
  check_int "main lane keeps the phases" 2 (List.length main)

let test_unfinished_span_is_closed_and_flagged () =
  let t = Tracer.create () in
  let _sp = Tracer.span t ~time:0 "phase.execute" in
  Tracer.instant t ~time:3 "mark";
  (* no finish: the export was taken mid-phase *)
  let tree = Spantree.build (Tracer.events t) in
  check_int "span counted" 1 tree.Spantree.spans;
  check_int "flagged unfinished" 1 tree.Spantree.unfinished;
  match Spantree.roots tree with
  | [ root ] ->
    check_bool "truncated flag set" true root.Spantree.n_truncated;
    check_int "closed at the last event" 3 root.Spantree.n_end
  | _ -> Alcotest.fail "expected one root"

let test_profile_totals_and_self () =
  let tree = Spantree.build ~lane_attrs:[] (sample_events ()) in
  let p = Profile.of_tree tree in
  check_int "span count" 4 p.Profile.total_spans;
  (match find p "sup.execute" with
  | Some r ->
    check_int "two case executions" 2 r.Profile.r_count;
    check_bool "case wall total" true (r.Profile.r_wall_total = 5.0);
    check_bool "leaf self = total" true (r.Profile.r_wall_self = 5.0);
    check_int "det total" 4 r.Profile.r_det_total
  | None -> Alcotest.fail "missing sup.execute row");
  (match find p "phase.execute" with
  | Some r ->
    check_bool "parent self excludes children" true
      (r.Profile.r_wall_self = 1.0)
  | None -> Alcotest.fail "missing phase.execute row");
  (* rows sorted by wall total: execute (6.0) leads *)
  match p.Profile.rows with
  | top :: _ -> check_str "hottest first" "phase.execute" top.Profile.r_name
  | [] -> Alcotest.fail "empty profile"

let test_critical_path_descends_heaviest () =
  let tree = Spantree.build ~lane_attrs:[] (sample_events ()) in
  let rendered = Profile.render_critical_path tree in
  let path =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | name :: _ :: _ -> Some name
        | _ -> None)
      (List.tl (String.split_on_char '\n' rendered))
  in
  (* heaviest root phase.execute (6.0s), heaviest child case 1 (4.0s) *)
  check (Alcotest.list Alcotest.string) "path"
    [ "phase.execute"; "sup.execute" ] path;
  check_bool "rendering names the critical path" true
    (String.length rendered >= 13 && String.sub rendered 0 13 = "critical path")

let test_folded_stacks () =
  let tree = Spantree.build ~lane_attrs:[] (sample_events ()) in
  let lines = Profile.folded tree in
  let prefix = "phase.execute;sup.execute" in
  check_bool "has a nested stack" true
    (List.exists
       (fun l ->
         String.length l > String.length prefix
         && String.sub l 0 (String.length prefix) = prefix)
       lines);
  (* weights are non-negative integers *)
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "malformed folded line: %s" l
      | Some i ->
        let w = String.sub l (i + 1) (String.length l - i - 1) in
        check_bool ("weight parses: " ^ l) true
          (match int_of_string_opt w with Some n -> n >= 0 | None -> false))
    lines

let test_chrome_export_shape () =
  let tree = Spantree.build (sample_events ()) in
  let json = Spantree.to_chrome tree in
  (* must survive its own printer/parser *)
  match Jsonl.parse (Jsonl.to_string json) with
  | Error e -> Alcotest.failf "chrome JSON reparse: %s" e
  | Ok j -> (
    match Jsonl.member "traceEvents" j with
    | Some (Jsonl.List events) ->
      (* 4 spans + 1 instant + 3 lane-name metadata records *)
      check_int "event count" 8 (List.length events);
      List.iter
        (fun e ->
          let str k = Option.bind (Jsonl.member k e) Jsonl.to_str in
          match str "ph" with
          | Some "X" ->
            check_bool "complete events carry ts+dur" true
              (Jsonl.member "ts" e <> None && Jsonl.member "dur" e <> None)
          | Some "i" | Some "M" -> ()
          | other ->
            Alcotest.failf "unexpected ph %s"
              (Option.value ~default:"<none>" other))
        events
    | _ -> Alcotest.fail "missing traceEvents")

(* --- streaming export ----------------------------------------------------- *)

(* Export.fold_file on an export larger than the tracer ring: the fold
   sees exactly the surviving events and the drop count, without
   materialising the file. *)
let test_fold_file_streams_ring_overflow () =
  let t = Tracer.create ~cap:16 () in
  for i = 0 to 99 do
    Tracer.instant t ~time:i ("tick" ^ string_of_int i)
  done;
  let obs = Obs.create ~tracer:t () in
  Metrics.add (Metrics.counter obs.Obs.metrics "c") 1;
  let path = Filename.temp_file "kit-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_file path (export_lines obs);
      match
        Export.fold_file path ~init:(0, 0, 0, 0)
          ~f:(fun (m, mt, ev, dr) -> function
            | Export.Meta _ -> (m + 1, mt, ev, dr)
            | Export.Metric _ -> (m, mt + 1, ev, dr)
            | Export.Event _ -> (m, mt, ev + 1, dr)
            | Export.Dropped n -> (m, mt, ev, dr + n))
      with
      | Error e -> Alcotest.failf "fold_file: %s" e
      | Ok (meta, metrics, events, dropped) ->
        check_int "meta line" 1 meta;
        check_int "metric lines" 1 metrics;
        check_int "only surviving events" 16 events;
        check_int "drop count" 84 dropped)

let test_fold_file_reports_malformed_line () =
  let path = Filename.temp_file "kit-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"k\":\"meta\",\"version\":1}\nnot json\n";
      close_out oc;
      match Export.fold_file path ~init:0 ~f:(fun n _ -> n + 1) with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error e ->
        check_bool "error names the line" true
          (String.length e >= 7 && String.sub e 0 7 = "line 2:"))

(* --- campaign integration -------------------------------------------------- *)

let small_options = { Campaign.default_options with Campaign.corpus_size = 48 }

(* The bridge between the two observability views: per-phase span wall
   totals in the reconstructed tree equal the time.<phase>_s gauges,
   exactly — Campaign stamps the span with the same gettimeofday
   readings the gauge is computed from, and Jsonl.float_repr guarantees
   exact float round-trips through the export. Profiling and generation
   are sub-phases of the front end with gauges but no span of their
   own: together they fit inside it. Diagnosis is such a sub-phase of
   execute. *)
let test_phase_span_totals_equal_time_gauges () =
  let obs = Obs.create () in
  let c =
    Campaign.run { small_options with Campaign.obs = Some obs }
  in
  ignore c;
  match parse (export_lines ~wall:true obs) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
    let tree =
      Spantree.build ~dropped:p.Export.p_dropped p.Export.p_events
    in
    let profile = Profile.of_tree tree in
    let gauge name =
      match List.assoc_opt ("time." ^ name ^ "_s") p.Export.p_snapshot with
      | Some (Metrics.Gauge_v v) -> v
      | _ -> Alcotest.failf "missing gauge time.%s_s" name
    in
    List.iter
      (fun stage ->
        match find profile ("phase." ^ stage) with
        | Some r ->
          check (Alcotest.float 0.0)
            ("phase." ^ stage ^ " wall total = time." ^ stage ^ "_s")
            (gauge stage) r.Profile.r_wall_total
        | None -> Alcotest.failf "missing phase.%s row" stage)
      [ "front"; "execute" ];
    check Alcotest.bool "profile_s + generate_s <= the front-end span" true
      (gauge "profile" +. gauge "generate" <= gauge "front");
    check Alcotest.bool "diagnose_s <= the execute span" true
      (gauge "diagnose" <= gauge "execute")

(* The acceptance qcheck: the reconstructed span tree and profile are
   invariant in the execute phase's domain count. Lanes keyed by the
   per-case correlation attr; placement attrs (domain/worker, the
   execute stage's domains annotation) are excluded from the
   fingerprint. *)
let prop_tree_invariant_in_domains =
  QCheck.Test.make
    ~name:"span tree and profile invariant across --domains 1..4" ~count:3
    QCheck.(int_range 2 4)
    (fun domains ->
      let fingerprints domains =
        let obs = Obs.create () in
        let _c =
          Campaign.run
            { small_options with
              Campaign.corpus_size = 32; domains; obs = Some obs }
        in
        let tree =
          Spantree.build ~lane_attrs:[ "case" ]
            ~dropped:(Tracer.dropped obs.Obs.tracer)
            (Tracer.events obs.Obs.tracer)
        in
        ( fingerprint tree,
          counts (Profile.of_tree tree) )
      in
      fingerprints 1 = fingerprints domains)

let suite =
  [
    Alcotest.test_case "tree reconstruction" `Quick test_tree_reconstruction;
    Alcotest.test_case "lane split by worker" `Quick test_lane_split_by_worker;
    Alcotest.test_case "unfinished span closed and flagged" `Quick
      test_unfinished_span_is_closed_and_flagged;
    Alcotest.test_case "profile totals and self" `Quick
      test_profile_totals_and_self;
    Alcotest.test_case "critical path descends heaviest" `Quick
      test_critical_path_descends_heaviest;
    Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "fold_file streams ring overflow" `Quick
      test_fold_file_streams_ring_overflow;
    Alcotest.test_case "fold_file reports malformed line" `Quick
      test_fold_file_reports_malformed_line;
    Alcotest.test_case "phase span totals equal time gauges" `Quick
      test_phase_span_totals_equal_time_gauges;
    QCheck_alcotest.to_alcotest prop_tree_invariant_in_domains;
  ]
