(* The metrics registry: named counters, gauges and fixed-bucket
   histograms with O(1) hot-path recording.

   A registry is a flat name -> metric table. Metric handles are interned
   once (get-or-create) and then recorded through directly: an increment
   is a bool check plus a field mutation, no hashing. Registries carry an
   [enabled] flag so instrumented code can stay in place with recording
   off; metrics created with [~always:true] bypass the flag — used for
   the few counters that are campaign accounting, not telemetry (the
   runner's execution and mask-cache counters), which must keep counting
   exactly as they did before the observability plane existed.

   Metrics created with [~volatile:true] hold wall-clock-derived values;
   they are excluded from snapshots unless asked for, which is what keeps
   the default export deterministic for a fixed seed.

   Multicore: registries are shared across domains (the global [default]
   registry sees every worker's syscall dispatch), so the structural
   mutations — interning a handle, reset, snapshot, absorb — take a
   process-wide mutex. The hot path is untouched: recording through an
   already-interned handle is still an unsynchronised field mutation,
   where a lost increment under contention is acceptable telemetry
   noise but a torn Hashtbl is not. *)

type c_rec = { mutable c : int }
type g_rec = { mutable g : float }

type h_rec = {
  le : float array;                  (* upper bucket bounds, ascending *)
  counts : int array;                (* length le + 1; last is +inf *)
  mutable sum : float;
  mutable n : int;
}

type cell = C of c_rec | G of g_rec | H of h_rec

type entry = { e_volatile : bool; e_cell : cell }

type registry = {
  mutable enabled : bool;
  tbl : (string, entry) Hashtbl.t;
}

type counter = { cr : registry; c_always : bool; cc : c_rec }
type gauge = { gr : registry; g_always : bool; gc : g_rec }
type histogram = { hr : registry; h_always : bool; hc : h_rec }

let create ?(enabled = true) () = { enabled; tbl = Hashtbl.create 64 }

(* The process-global default registry, disabled until someone turns it
   on: hot paths instrumented against it (syscall dispatch) cost one
   bool check by default. *)
let default = create ~enabled:false ()

let enabled r = r.enabled
let set_enabled r b = r.enabled <- b

(* One process-wide lock for all registries: interning and whole-table
   walks are cold paths, and a single lock cannot deadlock. *)
let structural_lock = Mutex.create ()

let locked f =
  Mutex.lock structural_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock structural_lock) f

let intern r name volatile make read =
  locked (fun () ->
      match Hashtbl.find_opt r.tbl name with
      | Some e -> read e.e_cell
      | None ->
        let cell = make () in
        Hashtbl.replace r.tbl name { e_volatile = volatile; e_cell = cell };
        read cell)

let wrong_kind name = invalid_arg ("Metrics: " ^ name ^ " registered with another kind")

let counter ?(volatile = false) ?(always = false) r name =
  intern r name volatile
    (fun () -> C { c = 0 })
    (function
      | C cc -> { cr = r; c_always = always; cc }
      | G _ | H _ -> wrong_kind name)

let inc c = if c.cr.enabled || c.c_always then c.cc.c <- c.cc.c + 1
let add c n = if c.cr.enabled || c.c_always then c.cc.c <- c.cc.c + n
let set_counter c n = if c.cr.enabled || c.c_always then c.cc.c <- n
let counter_value c = c.cc.c

let gauge ?(volatile = false) ?(always = false) r name =
  intern r name volatile
    (fun () -> G { g = 0.0 })
    (function
      | G gc -> { gr = r; g_always = always; gc }
      | C _ | H _ -> wrong_kind name)

let set_gauge g v = if g.gr.enabled || g.g_always then g.gc.g <- v
let add_gauge g v = if g.gr.enabled || g.g_always then g.gc.g <- g.gc.g +. v
let gauge_value g = g.gc.g

let default_buckets = [| 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 100.0; 500.0 |]

let histogram ?(volatile = false) ?(always = false)
    ?(buckets = default_buckets) r name =
  intern r name volatile
    (fun () ->
      H { le = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          sum = 0.0; n = 0 })
    (function
      | H hc -> { hr = r; h_always = always; hc }
      | C _ | G _ -> wrong_kind name)

let observe h v =
  if h.hr.enabled || h.h_always then begin
    let hc = h.hc in
    let k = Array.length hc.le in
    let rec slot i = if i >= k || v <= hc.le.(i) then i else slot (i + 1) in
    hc.counts.(slot 0) <- hc.counts.(slot 0) + 1;
    hc.sum <- hc.sum +. v;
    hc.n <- hc.n + 1
  end

let histogram_count h = h.hc.n
let histogram_sum h = h.hc.sum

let reset r =
  locked (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e.e_cell with
          | C cc -> cc.c <- 0
          | G gc -> gc.g <- 0.0
          | H hc ->
            Array.fill hc.counts 0 (Array.length hc.counts) 0;
            hc.sum <- 0.0;
            hc.n <- 0)
        r.tbl)

(* -- snapshots ----------------------------------------------------------- *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of { le : float list; counts : int list; sum : float; n : int }

type snapshot = (string * value) list

let snapshot ?(volatile = false) r =
  locked (fun () ->
      Hashtbl.fold
        (fun name e acc ->
          if e.e_volatile && not volatile then acc
          else
            let v =
              match e.e_cell with
              | C cc -> Counter_v cc.c
              | G gc -> Gauge_v gc.g
              | H hc ->
                Hist_v
                  { le = Array.to_list hc.le; counts = Array.to_list hc.counts;
                    sum = hc.sum; n = hc.n }
            in
            (name, v) :: acc)
        r.tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)


let merge snapshots =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let combine name a b =
    match (a, b) with
    | Counter_v x, Counter_v y -> Counter_v (x + y)
    | Gauge_v x, Gauge_v y -> Gauge_v (x +. y)
    | Hist_v x, Hist_v y when x.le = y.le ->
      Hist_v
        { le = x.le; counts = List.map2 ( + ) x.counts y.counts;
          sum = x.sum +. y.sum; n = x.n + y.n }
    | _ -> invalid_arg ("Metrics.merge: incompatible metric " ^ name)
  in
  List.iter
    (List.iter (fun (name, v) ->
         match Hashtbl.find_opt tbl name with
         | None ->
           Hashtbl.replace tbl name v;
           order := name :: !order
         | Some prev -> Hashtbl.replace tbl name (combine name prev v)))
    snapshots;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* In-place counterpart of [merge]: fold a snapshot's values into a
   registry's own metrics. Always-on handles, so per-domain accounting
   lands even when the target bundle has recording switched off. *)
let absorb r snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> add (counter ~always:true r name) n
      | Gauge_v g -> add_gauge (gauge ~always:true r name) g
      | Hist_v { le; counts; sum; n } ->
        let h =
          histogram ~always:true ~buckets:(Array.of_list le) r name
        in
        if Array.to_list h.hc.le <> le then
          invalid_arg ("Metrics.absorb: incompatible histogram " ^ name);
        List.iteri
          (fun i c -> h.hc.counts.(i) <- h.hc.counts.(i) + c)
          counts;
        h.hc.sum <- h.hc.sum +. sum;
        h.hc.n <- h.hc.n + n)
    snap

