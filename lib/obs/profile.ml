(* Aggregate profile over a reconstructed span tree: per-span-name
   counts, total (inclusive) and self (exclusive) time — both wall and
   deterministic — a top-k hot-path table, critical-path extraction, and
   a folded-stacks flamegraph rendering.

   Self time is inclusive time minus the children's inclusive time,
   clamped at zero: with virtual-clock timestamps a child recorded on a
   different clock basis can nominally outspan its parent, and a profile
   must never report negative cost. *)

type row = {
  r_name : string;
  r_count : int;
  r_wall_total : float;             (* inclusive wall seconds *)
  r_wall_self : float;              (* exclusive wall seconds *)
  r_det_total : int;                (* inclusive deterministic ticks *)
  r_det_self : int;                 (* exclusive deterministic ticks *)
}

type t = {
  rows : row list;                  (* sorted: wall total desc, then name *)
  total_spans : int;
  total_wall : float;               (* sum of root inclusive wall time *)
  total_det : int;
}

let of_tree (tree : Spantree.t) =
  let tbl : (string, row) Hashtbl.t = Hashtbl.create 32 in
  let add name ~wt ~ws ~dt ~ds =
    let r =
      match Hashtbl.find_opt tbl name with
      | Some r -> r
      | None ->
        { r_name = name; r_count = 0; r_wall_total = 0.0; r_wall_self = 0.0;
          r_det_total = 0; r_det_self = 0 }
    in
    Hashtbl.replace tbl name
      { r with
        r_count = r.r_count + 1;
        r_wall_total = r.r_wall_total +. wt;
        r_wall_self = r.r_wall_self +. ws;
        r_det_total = r.r_det_total + dt;
        r_det_self = r.r_det_self + ds }
  in
  let spans = ref 0 in
  let rec walk (n : Spantree.node) =
    if not n.Spantree.n_instant then begin
      incr spans;
      let wt = Spantree.wall_duration n in
      let dt = Spantree.det_duration n in
      let cw, cd =
        List.fold_left
          (fun (cw, cd) c ->
            if c.Spantree.n_instant then (cw, cd)
            else
              (cw +. Spantree.wall_duration c, cd + Spantree.det_duration c))
          (0.0, 0) n.Spantree.n_children
      in
      add n.Spantree.n_name ~wt ~ws:(Float.max 0.0 (wt -. cw)) ~dt
        ~ds:(max 0 (dt - cd))
    end;
    List.iter walk n.Spantree.n_children
  in
  let total_wall, total_det =
    List.fold_left
      (fun (tw, td) n ->
        walk n;
        if n.Spantree.n_instant then (tw, td)
        else (tw +. Spantree.wall_duration n, td + Spantree.det_duration n))
      (0.0, 0)
      (Spantree.roots tree)
  in
  let rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
    |> List.sort (fun a b ->
           match compare b.r_wall_total a.r_wall_total with
           | 0 -> (
             match compare b.r_det_total a.r_det_total with
             | 0 -> compare a.r_name b.r_name
             | c -> c)
           | c -> c)
  in
  { rows; total_spans = !spans; total_wall; total_det }

let top ?(k = 10) t = List.filteri (fun i _ -> i < k) t.rows

(* -- critical path --------------------------------------------------------

   The chain of heaviest spans: start from the heaviest root, descend
   into the heaviest child until a leaf. Weight is inclusive wall time
   when the trace carries wall times, inclusive deterministic time
   otherwise — a deterministic export still yields a path. *)

let node_weight (n : Spantree.node) =
  let w = Spantree.wall_duration n in
  if w > 0.0 then w else float_of_int (Spantree.det_duration n)

let critical_path (tree : Spantree.t) =
  let heaviest = function
    | [] -> None
    | ns ->
      let spans = List.filter (fun n -> not n.Spantree.n_instant) ns in
      (match spans with
       | [] -> None
       | ns ->
         Some
           (List.fold_left
              (fun best n ->
                if node_weight n > node_weight best then n else best)
              (List.hd ns) (List.tl ns)))
  in
  let rec descend acc n =
    match heaviest n.Spantree.n_children with
    | Some c -> descend (c :: acc) c
    | None -> List.rev acc
  in
  match heaviest (Spantree.roots tree) with
  | None -> []
  | Some root -> descend [ root ] root

(* -- folded stacks --------------------------------------------------------

   One line per stack, "root;child;leaf weight", weight = self time.
   Wall microseconds when available, deterministic ticks otherwise —
   flamegraph.pl and speedscope both take the format. *)

let folded (tree : Spantree.t) =
  let has_wall =
    List.exists (fun n -> Spantree.wall_duration n > 0.0) (Spantree.roots tree)
  in
  let lines = ref [] in
  let rec walk stack (n : Spantree.node) =
    if not n.Spantree.n_instant then begin
      let stack = n.Spantree.n_name :: stack in
      let cw, cd =
        List.fold_left
          (fun (cw, cd) c ->
            if c.Spantree.n_instant then (cw, cd)
            else
              (cw +. Spantree.wall_duration c, cd + Spantree.det_duration c))
          (0.0, 0) n.Spantree.n_children
      in
      let weight =
        if has_wall then
          int_of_float
            (Float.max 0.0 (Spantree.wall_duration n -. cw) *. 1e6)
        else max 0 (Spantree.det_duration n - cd)
      in
      if weight > 0 || n.Spantree.n_children = [] then
        lines :=
          (String.concat ";" (List.rev stack) ^ " " ^ string_of_int weight)
          :: !lines;
      List.iter (walk stack) n.Spantree.n_children
    end
    else List.iter (walk stack) n.Spantree.n_children
  in
  List.iter (walk []) (Spantree.roots tree);
  List.rev !lines

(* -- rendering ------------------------------------------------------------ *)

let render_table ?k t =
  let rows = match k with Some k -> top ~k t | None -> t.rows in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-32s %8s %12s %12s %10s %10s\n" "span" "count"
    "wall total" "wall self" "det total" "det self";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-32s %8d %11.6fs %11.6fs %10d %10d\n" r.r_name
        r.r_count r.r_wall_total r.r_wall_self r.r_det_total r.r_det_self)
    rows;
  Printf.bprintf buf "%d spans, %.6fs wall, %d det ticks at the roots\n"
    t.total_spans t.total_wall t.total_det;
  Buffer.contents buf

let render_critical_path tree =
  match critical_path tree with
  | [] -> "critical path: (empty trace)\n"
  | path ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "critical path:\n";
    List.iteri
      (fun i (n : Spantree.node) ->
        Printf.bprintf buf "  %s%s" (String.make (2 * i) ' ')
          n.Spantree.n_name;
        let w = Spantree.wall_duration n in
        if w > 0.0 then Printf.bprintf buf "  %.6fs" w;
        Printf.bprintf buf "  dt=%d" (Spantree.det_duration n);
        List.iter
          (fun (key, v) -> Printf.bprintf buf " %s=%s" key v)
          n.Spantree.n_attrs;
        Buffer.add_char buf '\n')
      path;
    Buffer.contents buf
