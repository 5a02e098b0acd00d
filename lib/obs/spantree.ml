(* Reconstruct the causal span tree from the flat Tracer event ring.

   The tracer records Begin/End/Instant events in one flat stream; this
   module rebuilds the nesting. Events are first split into lanes — one
   per distinct value of the first matching lane attribute ("domain" /
   "worker" by default), so per-domain rings merged by Tracer.merge do
   not corrupt each other's Begin/End pairing — then each lane runs a
   stack machine over its events in order.

   The builder is tolerant of rings truncated by drops:

   - an End whose Begin was dropped synthesizes a truncated root that
     adopts everything reconstructed so far in its lane (the dropped
     Begin necessarily preceded all surviving lane events);
   - a Begin whose End is missing (span still open when the export was
     taken, or the End lost to a crash) is closed at the lane's last
     event and marked truncated;
   - both cases are counted, never fatal.

   Timestamps: every node carries the deterministic interval
   ([t_begin, t_end]) and the wall-clock one ([w_begin, w_end]).
   Deterministic times come from different sources per subsystem (event
   sequence numbers for pipeline phases, the virtual kernel clock for
   supervised executions), so they order events within one span family;
   wall times are globally comparable and drive duration analysis. *)

type node = {
  n_name : string;
  n_attrs : (string * string) list;
  n_begin : int;                        (* deterministic timestamps *)
  n_end : int;
  n_wbegin : float;                     (* wall timestamps (0 if absent) *)
  n_wend : float;
  n_children : node list;               (* in event order *)
  n_instant : bool;
  n_truncated : bool;                   (* Begin or End lost to the ring *)
}

type t = {
  lanes : (string * node list) list;    (* lane key -> roots, event order *)
  spans : int;                          (* span nodes (instants excluded) *)
  instants : int;
  truncated_begins : int;               (* Ends whose Begin was dropped *)
  unfinished : int;                     (* Begins never ended *)
  dropped : int;                        (* ring drop count from the export *)
}

let default_lane_attrs = [ "domain"; "worker" ]

let main_lane = "main"

let lane_key lane_attrs (e : Tracer.event) =
  let rec go = function
    | [] -> main_lane
    | a :: rest -> (
      match List.assoc_opt a e.Tracer.attrs with
      | Some v -> a ^ "=" ^ v
      | None -> go rest)
  in
  go lane_attrs

(* Wall durations are best-effort: deterministic exports carry no wall
   timestamps (parsed back as 0), and clock steps between domains can
   make an interval run backwards. Clamp, never trust. *)
let wall_duration n = Float.max 0.0 (n.n_wend -. n.n_wbegin)

let det_duration n = max 0 (n.n_end - n.n_begin)

(* One lane's stack machine. *)
type frame = {
  f_name : string;
  f_attrs : (string * string) list;
  f_begin : int;
  f_wbegin : float;
  mutable f_children : node list;       (* newest first *)
}

type lane_state = {
  mutable l_stack : frame list;
  mutable l_roots : node list;          (* newest first *)
  mutable l_last : int;                 (* last event's timestamps, for *)
  mutable l_wlast : float;              (* closing unfinished frames *)
  mutable l_first : int;                (* first event's, for synthesized *)
  mutable l_wfirst : float;             (* truncated roots *)
  mutable l_seen : bool;
}

let lane_create () =
  { l_stack = []; l_roots = []; l_last = 0; l_wlast = 0.0; l_first = 0;
    l_wfirst = 0.0; l_seen = false }

let attach ls node =
  match ls.l_stack with
  | f :: _ -> f.f_children <- node :: f.f_children
  | [] -> ls.l_roots <- node :: ls.l_roots

let close_frame ls f ~t_end ~w_end ~truncated =
  let node =
    { n_name = f.f_name; n_attrs = f.f_attrs; n_begin = f.f_begin;
      n_end = t_end; n_wbegin = f.f_wbegin; n_wend = w_end;
      n_children = List.rev f.f_children; n_instant = false;
      n_truncated = truncated }
  in
  attach ls node

type counts = {
  mutable c_spans : int;
  mutable c_instants : int;
  mutable c_truncated : int;
  mutable c_unfinished : int;
}

let feed counts ls (e : Tracer.event) =
  if not ls.l_seen then begin
    ls.l_seen <- true;
    ls.l_first <- e.Tracer.time;
    ls.l_wfirst <- e.Tracer.wall
  end;
  ls.l_last <- e.Tracer.time;
  ls.l_wlast <- e.Tracer.wall;
  match e.Tracer.kind with
  | Tracer.Instant ->
    counts.c_instants <- counts.c_instants + 1;
    attach ls
      { n_name = e.Tracer.name; n_attrs = e.Tracer.attrs;
        n_begin = e.Tracer.time; n_end = e.Tracer.time;
        n_wbegin = e.Tracer.wall; n_wend = e.Tracer.wall; n_children = [];
        n_instant = true; n_truncated = false }
  | Tracer.Begin ->
    ls.l_stack <-
      { f_name = e.Tracer.name; f_attrs = e.Tracer.attrs;
        f_begin = e.Tracer.time; f_wbegin = e.Tracer.wall; f_children = [] }
      :: ls.l_stack
  | Tracer.End -> (
    let matches f = String.equal f.f_name e.Tracer.name in
    match ls.l_stack with
    | f :: rest when matches f ->
      ls.l_stack <- rest;
      counts.c_spans <- counts.c_spans + 1;
      close_frame ls f ~t_end:e.Tracer.time ~w_end:e.Tracer.wall
        ~truncated:false
    | stack when List.exists matches stack ->
      (* Intervening frames lost their Ends (truncation mid-ring): close
         them at this event before closing the match. *)
      let rec unwind () =
        match ls.l_stack with
        | f :: rest when not (matches f) ->
          ls.l_stack <- rest;
          counts.c_spans <- counts.c_spans + 1;
          counts.c_unfinished <- counts.c_unfinished + 1;
          close_frame ls f ~t_end:e.Tracer.time ~w_end:e.Tracer.wall
            ~truncated:true;
          unwind ()
        | f :: rest ->
          ls.l_stack <- rest;
          counts.c_spans <- counts.c_spans + 1;
          close_frame ls f ~t_end:e.Tracer.time ~w_end:e.Tracer.wall
            ~truncated:false
        | [] -> assert false
      in
      unwind ()
    | _ ->
      (* Orphaned End: its Begin was dropped by the ring, so the span
         opened before every surviving lane event — synthesize a
         truncated root spanning the lane so far and adopt the roots
         reconstructed up to here. *)
      counts.c_spans <- counts.c_spans + 1;
      counts.c_truncated <- counts.c_truncated + 1;
      let adopted = List.rev ls.l_roots in
      ls.l_roots <-
        [ { n_name = e.Tracer.name; n_attrs = e.Tracer.attrs;
            n_begin = ls.l_first; n_end = e.Tracer.time;
            n_wbegin = ls.l_wfirst; n_wend = e.Tracer.wall;
            n_children = adopted; n_instant = false; n_truncated = true } ])

let lane_finish counts ls =
  (* Close still-open frames at the lane's last event, innermost out. *)
  List.iter
    (fun f ->
      ls.l_stack <- List.tl ls.l_stack;
      counts.c_spans <- counts.c_spans + 1;
      counts.c_unfinished <- counts.c_unfinished + 1;
      close_frame ls f ~t_end:ls.l_last ~w_end:ls.l_wlast ~truncated:true)
    ls.l_stack;
  List.rev ls.l_roots

let build ?(lane_attrs = default_lane_attrs) ?(dropped = 0) events =
  let counts =
    { c_spans = 0; c_instants = 0; c_truncated = 0; c_unfinished = 0 }
  in
  let lanes : (string, lane_state) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in                 (* lane keys, first-seen order *)
  List.iter
    (fun e ->
      let key = lane_key lane_attrs e in
      let ls =
        match Hashtbl.find_opt lanes key with
        | Some ls -> ls
        | None ->
          let ls = lane_create () in
          Hashtbl.replace lanes key ls;
          order := key :: !order;
          ls
      in
      feed counts ls e)
    events;
  let lanes =
    List.rev_map
      (fun key -> (key, lane_finish counts (Hashtbl.find lanes key)))
      !order
  in
  { lanes; spans = counts.c_spans; instants = counts.c_instants;
    truncated_begins = counts.c_truncated; unfinished = counts.c_unfinished;
    dropped }

let roots t = List.concat_map snd t.lanes

(* -- rendering ------------------------------------------------------------ *)

let render ?(max_depth = max_int) t =
  let buf = Buffer.create 1024 in
  let rec node depth n =
    if depth <= max_depth then begin
      Printf.bprintf buf "%s%s%s%s" (String.make (2 * depth) ' ') n.n_name
        (if n.n_instant then " !" else "")
        (if n.n_truncated then " (truncated)" else "");
      if not n.n_instant then begin
        if wall_duration n > 0.0 then
          Printf.bprintf buf "  %.6fs" (wall_duration n);
        Printf.bprintf buf "  dt=%d" (det_duration n)
      end;
      List.iter
        (fun (k, v) -> Printf.bprintf buf " %s=%s" k v)
        n.n_attrs;
      Buffer.add_char buf '\n';
      if depth = max_depth && n.n_children <> [] then
        Printf.bprintf buf "%s... (%d children)\n"
          (String.make (2 * (depth + 1)) ' ')
          (List.length n.n_children)
      else List.iter (node (depth + 1)) n.n_children
    end
  in
  List.iter
    (fun (key, roots) ->
      if roots <> [] then begin
        Printf.bprintf buf "-- lane %s --\n" key;
        List.iter (node 0) roots
      end)
    t.lanes;
  if t.dropped > 0 then
    Printf.bprintf buf "(%d events dropped by the ring buffer)\n" t.dropped;
  if t.truncated_begins > 0 || t.unfinished > 0 then
    Printf.bprintf buf "(%d truncated, %d unfinished spans)\n"
      t.truncated_begins t.unfinished;
  Buffer.contents buf

(* -- Chrome trace-event export --------------------------------------------

   The JSON Array Format of the trace-event spec: complete events
   ("ph":"X") for spans, instants ("ph":"i") for instant events, one tid
   per lane with a thread_name metadata record. Loadable in Perfetto and
   chrome://tracing. Timestamps are microseconds: wall-clock rebased to
   the trace start when the export carried wall times, the deterministic
   timestamps otherwise. *)

let to_chrome t =
  let has_wall =
    List.exists
      (fun (_, roots) ->
        List.exists (fun n -> n.n_wbegin > 0.0 || n.n_wend > 0.0) roots)
      t.lanes
  in
  let wall0 =
    List.fold_left
      (fun acc (_, roots) ->
        List.fold_left
          (fun acc n ->
            if n.n_wbegin > 0.0 then Float.min acc n.n_wbegin else acc)
          acc roots)
      infinity t.lanes
  in
  let ts n =
    if has_wall && wall0 < infinity then
      Jsonl.Float (Float.max 0.0 (n.n_wbegin -. wall0) *. 1e6)
    else Jsonl.Int n.n_begin
  in
  let dur n =
    if has_wall && wall0 < infinity then Jsonl.Float (wall_duration n *. 1e6)
    else Jsonl.Int (det_duration n)
  in
  let args n =
    if n.n_attrs = [] then []
    else
      [ ("args",
         Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Str v)) n.n_attrs)) ]
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  List.iteri
    (fun tid (key, roots) ->
      emit
        (Jsonl.Obj
           [ ("ph", Jsonl.Str "M"); ("name", Jsonl.Str "thread_name");
             ("pid", Jsonl.Int 0); ("tid", Jsonl.Int tid);
             ("args", Jsonl.Obj [ ("name", Jsonl.Str key) ]) ]);
      let rec node n =
        let base =
          [ ("name", Jsonl.Str n.n_name); ("cat", Jsonl.Str "kit");
            ("ph", Jsonl.Str (if n.n_instant then "i" else "X"));
            ("ts", ts n); ("pid", Jsonl.Int 0); ("tid", Jsonl.Int tid) ]
        in
        let shape =
          if n.n_instant then [ ("s", Jsonl.Str "t") ]
          else [ ("dur", dur n) ]
        in
        emit (Jsonl.Obj (base @ shape @ args n));
        List.iter node n.n_children
      in
      List.iter node roots)
    t.lanes;
  Jsonl.Obj
    [ ("traceEvents", Jsonl.List (List.rev !events));
      ("displayTimeUnit", Jsonl.Str "ms") ]
