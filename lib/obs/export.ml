(* Telemetry export: one JSON object per line (JSONL), self-describing
   via a "k" kind tag, plus the inverse parser feeding `kit stats` and
   the golden tests.

   Deterministic by default: volatile (wall-clock-derived) metrics and
   the per-event wall timestamps are only emitted with [~wall:true], so
   the export of a fixed-seed campaign is byte-stable across runs. *)

let version = 1

(* -- emission ------------------------------------------------------------ *)

let meta_line extra =
  Jsonl.to_string
    (Jsonl.Obj
       (("k", Jsonl.Str "meta") :: ("version", Jsonl.Int version) :: extra))

let metric_line (name, value) =
  let fields =
    match (value : Metrics.value) with
    | Metrics.Counter_v n ->
      [ ("k", Jsonl.Str "counter"); ("name", Jsonl.Str name);
        ("value", Jsonl.Int n) ]
    | Metrics.Gauge_v v ->
      [ ("k", Jsonl.Str "gauge"); ("name", Jsonl.Str name);
        ("value", Jsonl.Float v) ]
    | Metrics.Hist_v h ->
      [ ("k", Jsonl.Str "hist"); ("name", Jsonl.Str name);
        ("le", Jsonl.List (List.map (fun v -> Jsonl.Float v) h.le));
        ("counts", Jsonl.List (List.map (fun n -> Jsonl.Int n) h.counts));
        ("sum", Jsonl.Float h.sum); ("count", Jsonl.Int h.n) ]
  in
  Jsonl.to_string (Jsonl.Obj fields)

let event_line ~wall (e : Tracer.event) =
  let base =
    [ ("k", Jsonl.Str "event"); ("seq", Jsonl.Int e.Tracer.seq);
      ("time", Jsonl.Int e.Tracer.time);
      ("ev", Jsonl.Str (Tracer.kind_to_string e.Tracer.kind));
      ("name", Jsonl.Str e.Tracer.name) ]
  in
  let attrs =
    if e.Tracer.attrs = [] then []
    else
      [ ("attrs",
         Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Str v)) e.Tracer.attrs)) ]
  in
  let wall_f = if wall then [ ("wall", Jsonl.Float e.Tracer.wall) ] else [] in
  Jsonl.to_string (Jsonl.Obj (base @ attrs @ wall_f))

let dropped_line n =
  Jsonl.to_string
    (Jsonl.Obj [ ("k", Jsonl.Str "dropped"); ("events", Jsonl.Int n) ])

let lines ?(wall = false) ?(meta = []) ?(events = []) ?(dropped = 0) snapshot =
  meta_line meta
  :: List.map metric_line snapshot
  @ List.map (event_line ~wall) events
  @ (if dropped > 0 then [ dropped_line dropped ] else [])

let write_file path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines)

(* -- parsing ------------------------------------------------------------- *)

type parsed = {
  p_meta : (string * Jsonl.t) list;
  p_snapshot : Metrics.snapshot;
  p_events : Tracer.event list;
  p_dropped : int;
}

let req what = function Some v -> Ok v | None -> Error ("missing " ^ what)

let ( let* ) r f = Result.bind r f

let parse_metric kind json =
  let* name = req "name" Jsonl.(Option.bind (member "name" json) to_str) in
  match kind with
  | "counter" ->
    let* v = req "value" Jsonl.(Option.bind (member "value" json) to_int) in
    Ok (name, Metrics.Counter_v v)
  | "gauge" ->
    let* v = req "value" Jsonl.(Option.bind (member "value" json) to_float) in
    Ok (name, Metrics.Gauge_v v)
  | _ ->
    let* le = req "le" Jsonl.(Option.bind (member "le" json) to_list) in
    let* counts =
      req "counts" Jsonl.(Option.bind (member "counts" json) to_list)
    in
    let* sum = req "sum" Jsonl.(Option.bind (member "sum" json) to_float) in
    let* n = req "count" Jsonl.(Option.bind (member "count" json) to_int) in
    let floats l = List.filter_map Jsonl.to_float l in
    let ints l = List.filter_map Jsonl.to_int l in
    Ok (name, Metrics.Hist_v { le = floats le; counts = ints counts; sum; n })

let parse_event json =
  let* seq = req "seq" Jsonl.(Option.bind (member "seq" json) to_int) in
  let* time = req "time" Jsonl.(Option.bind (member "time" json) to_int) in
  let* ev = req "ev" Jsonl.(Option.bind (member "ev" json) to_str) in
  let* kind = req "event kind" (Tracer.kind_of_string ev) in
  let* name = req "name" Jsonl.(Option.bind (member "name" json) to_str) in
  let attrs =
    match Jsonl.member "attrs" json with
    | Some (Jsonl.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Jsonl.to_str v))
        fields
    | _ -> []
  in
  let wall =
    Option.value ~default:0.0
      Jsonl.(Option.bind (member "wall" json) to_float)
  in
  Ok { Tracer.seq; time; kind; name; attrs; wall }

(* One parsed export line. The streaming surface: `fold_file` hands
   these to a fold one at a time, so `kit trace` can walk an export far
   larger than memory-comfortable without materialising the event
   list. *)
type line =
  | Meta of (string * Jsonl.t) list
  | Metric of string * Metrics.value
  | Event of Tracer.event
  | Dropped of int

let parse_line ~line_no raw =
  if String.trim raw = "" then Ok None
  else
    let* json =
      Result.map_error
        (fun e -> Printf.sprintf "line %d: %s" line_no e)
        (Jsonl.parse raw)
    in
    let* kind =
      req
        (Printf.sprintf "line %d: \"k\" tag" line_no)
        Jsonl.(Option.bind (member "k" json) to_str)
    in
    match kind with
    | "meta" ->
      let meta =
        match json with
        | Jsonl.Obj fields ->
          List.filter (fun (k, _) -> k <> "k" && k <> "version") fields
        | _ -> []
      in
      Ok (Some (Meta meta))
    | "counter" | "gauge" | "hist" ->
      let* name, value = parse_metric kind json in
      Ok (Some (Metric (name, value)))
    | "event" ->
      let* e = parse_event json in
      Ok (Some (Event e))
    | "dropped" ->
      let n =
        Option.value ~default:0
          Jsonl.(Option.bind (member "events" json) to_int)
      in
      Ok (Some (Dropped n))
    | other -> Error (Printf.sprintf "line %d: unknown kind %S" line_no other)

let fold_file path ~init ~f =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let line_no = ref 0 in
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> Ok acc
          | raw ->
            incr line_no;
            let* parsed = parse_line ~line_no:!line_no raw in
            go (match parsed with Some l -> f acc l | None -> acc)
        in
        go init)

let collect acc = function
  | Meta meta -> { acc with p_meta = acc.p_meta @ meta }
  | Metric (name, value) ->
    { acc with p_snapshot = (name, value) :: acc.p_snapshot }
  | Event e -> { acc with p_events = e :: acc.p_events }
  | Dropped n -> { acc with p_dropped = n }

let empty_parsed =
  { p_meta = []; p_snapshot = []; p_events = []; p_dropped = 0 }

let finish_parsed acc =
  { acc with
    p_snapshot = List.rev acc.p_snapshot;
    p_events = List.rev acc.p_events }

let read_file path =
  Result.map finish_parsed (fold_file path ~init:empty_parsed ~f:collect)
