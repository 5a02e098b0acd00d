(* Human-readable rendering of a telemetry export: aligned tables for
   counters, gauges and histograms, plus a span summary built by pairing
   begin/end events (LIFO per name, as emitted by Tracer.with_span). *)

let bprintf = Printf.bprintf

type span_stat = {
  mutable ss_count : int;
  mutable ss_wall : float;            (* summed wall durations, seconds *)
}

(* Aggregate spans by name. Unmatched Begin events (span still open when
   the export was taken, or its Begin dropped by the ring) count without
   a duration. *)
let span_stats events =
  let stats : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
  let stat name =
    match Hashtbl.find_opt stats name with
    | Some s -> s
    | None ->
      let s = { ss_count = 0; ss_wall = 0.0 } in
      Hashtbl.replace stats name s;
      s
  in
  let open_spans : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Tracer.event) ->
      match e.Tracer.kind with
      | Tracer.Instant -> (stat e.Tracer.name).ss_count <- (stat e.Tracer.name).ss_count + 1
      | Tracer.Begin ->
        let stack =
          match Hashtbl.find_opt open_spans e.Tracer.name with
          | Some st -> st
          | None ->
            let st = ref [] in
            Hashtbl.replace open_spans e.Tracer.name st;
            st
        in
        stack := e.Tracer.wall :: !stack;
        (stat e.Tracer.name).ss_count <- (stat e.Tracer.name).ss_count + 1
      | Tracer.End -> (
        match Hashtbl.find_opt open_spans e.Tracer.name with
        | Some ({ contents = start :: rest } as stack) ->
          stack := rest;
          let s = stat e.Tracer.name in
          s.ss_wall <- s.ss_wall +. Float.max 0.0 (e.Tracer.wall -. start)
        | Some { contents = [] } | None -> ()))
    events;
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) stats []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_mean (h : Metrics.value) =
  match h with
  | Metrics.Hist_v { sum; n; _ } when n > 0 -> sum /. float_of_int n
  | _ -> 0.0

let section buf title = bprintf buf "-- %s --\n" title

(* The export's own shape, before its contents: how many instruments
   the registry carried, how many trace events survived the ring and
   how many it dropped — the numbers that say whether the telemetry
   itself is trustworthy. *)
let telemetry_header buf (p : Export.parsed) =
  section buf "telemetry";
  bprintf buf "%-36s %12d\n" "metrics registered"
    (List.length p.Export.p_snapshot);
  bprintf buf "%-36s %12d\n" "trace events" (List.length p.Export.p_events);
  bprintf buf "%-36s %12d\n" "trace ring dropped" p.Export.p_dropped;
  Buffer.add_char buf '\n'

let stats (p : Export.parsed) =
  let buf = Buffer.create 1024 in
  telemetry_header buf p;
  if p.Export.p_meta <> [] then begin
    section buf "meta";
    List.iter
      (fun (k, v) -> bprintf buf "%-36s %s\n" k (Jsonl.to_string v))
      p.Export.p_meta;
    Buffer.add_char buf '\n'
  end;
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        match (v : Metrics.value) with
        | Metrics.Counter_v n -> ((name, n) :: cs, gs, hs)
        | Metrics.Gauge_v g -> (cs, (name, g) :: gs, hs)
        | Metrics.Hist_v _ -> (cs, gs, (name, v) :: hs))
      ([], [], []) p.Export.p_snapshot
  in
  let counters = List.rev counters
  and gauges = List.rev gauges
  and hists = List.rev hists in
  if counters <> [] then begin
    section buf "counters";
    List.iter (fun (name, n) -> bprintf buf "%-36s %12d\n" name n) counters;
    Buffer.add_char buf '\n'
  end;
  if gauges <> [] then begin
    section buf "gauges";
    List.iter (fun (name, g) -> bprintf buf "%-36s %12.6g\n" name g) gauges;
    Buffer.add_char buf '\n'
  end;
  if hists <> [] then begin
    section buf "histograms";
    bprintf buf "%-36s %8s %12s %12s\n" "" "count" "sum" "mean";
    List.iter
      (fun (name, v) ->
        match (v : Metrics.value) with
        | Metrics.Hist_v { n; sum; _ } ->
          bprintf buf "%-36s %8d %12.6g %12.6g\n" name n sum (hist_mean v)
        | Metrics.Counter_v _ | Metrics.Gauge_v _ -> ())
      hists;
    Buffer.add_char buf '\n'
  end;
  (match span_stats p.Export.p_events with
  | [] -> ()
  | spans ->
    section buf "spans";
    bprintf buf "%-36s %8s %12s\n" "" "count" "wall (s)";
    List.iter
      (fun (name, s) ->
        if s.ss_wall > 0.0 then
          bprintf buf "%-36s %8d %12.3f\n" name s.ss_count s.ss_wall
        else bprintf buf "%-36s %8d %12s\n" name s.ss_count "-")
      spans;
    Buffer.add_char buf '\n');
  if p.Export.p_dropped > 0 then
    bprintf buf "(%d trace events dropped by the ring buffer)\n"
      p.Export.p_dropped;
  Buffer.contents buf

(* -- funnel attrition ---------------------------------------------------- *)

let counter_value snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Metrics.Counter_v n) -> Some n
  | Some (Metrics.Gauge_v _ | Metrics.Hist_v _) | None -> None

(* The attrition funnel, rendered from the always-on "campaign.attr_*"
   counters of an exported snapshot: every generated case is charged to
   exactly one terminal stage, so the stages sum back to the top row.
   The "campaign.sched_*" stream rides along when the snapshot carries
   it (schedule search actually ran). *)
let funnel (p : Export.parsed) =
  let snapshot = p.Export.p_snapshot in
  let c name = counter_value snapshot ("campaign." ^ name) in
  match c "attr_generated" with
  | None ->
    "no funnel accounting in this export \
     (no campaign.attr_* counters; re-export from a finished campaign)\n"
  | Some generated ->
    let v name = Option.value (c name) ~default:0 in
    let buf = Buffer.create 512 in
    section buf "funnel";
    let row indent name n =
      bprintf buf "%-36s %12d\n" (String.make indent ' ' ^ name) n
    in
    row 0 "generated data-flow cases" generated;
    row 2 "absorbed by clustering" (v "attr_absorbed");
    row 0 "executed representatives"
      (generated - v "attr_absorbed");
    row 2 "quarantined: kernel panic" (v "attr_quar_panic");
    row 2 "quarantined: hung forever" (v "attr_quar_hung");
    row 2 "quarantined: worker lost" (v "attr_quar_lost");
    row 2 "no divergence" (v "attr_no_divergence");
    row 2 "filtered: non-determinism" (v "attr_filtered_nondet");
    row 2 "filtered: resource spec" (v "attr_filtered_resource");
    row 0 "reported" (v "attr_reported");
    let terminal =
      v "attr_absorbed" + v "attr_quar_panic" + v "attr_quar_hung"
      + v "attr_quar_lost" + v "attr_no_divergence"
      + v "attr_filtered_nondet" + v "attr_filtered_resource"
      + v "attr_reported"
    in
    bprintf buf "%-36s %12s\n" "balance"
      (if terminal = generated then "ok"
       else Printf.sprintf "off by %d" (generated - terminal));
    (match c "sched_candidates" with
    | None -> ()
    | Some candidates ->
      Buffer.add_char buf '\n';
      section buf "schedule search";
      row 0 "completed cases searched" candidates;
      row 2 "equivalence classes" (v "sched_classes");
      row 2 "representatives executed" (v "sched_executed");
      row 2 "seeds pruned" (v "sched_pruned");
      row 2 "lost to crashes" (v "sched_skipped");
      row 0 "concurrent reports" (v "concurrent_reports"));
    (match c "cov_vars" with
    | None -> ()
    | Some vars ->
      Buffer.add_char buf '\n';
      section buf "coverage";
      row 0 "protected shared variables" vars;
      row 2 "touched" (v "cov_touched");
      row 2 "written" (v "cov_written");
      row 2 "read" (v "cov_read");
      row 2 "write/read pair observed" (v "cov_paired");
      row 2 "attributed to a report" (v "cov_attributed");
      row 0 "coverage gaps (no pair)" (v "cov_gaps"));
    Buffer.contents buf
