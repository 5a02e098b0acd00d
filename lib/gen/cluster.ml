(* Test case generation and clustering strategies (paper, sections 4.1.2
   and 6.3):

   - DF      every (write site, read site) pair on a shared address — the
             unclustered universe, counted but not executed;
   - DF-IA   clusters data flows by (write instruction, read instruction);
   - DF-ST-k additionally by the call-stack context, truncated to the k
             caller frames above the accessing function;
   - RAND    random sender/receiver pairs from the corpus, the baseline.

   One representative test case per cluster is executed; representatives
   are chosen deterministically as the minimum candidate under the total
   Testcase order (corpus order first), so runs are reproducible.

   Two equivalent construction modes exist. The batch mode ([run]) takes
   a fully built access map and clusters it in one pass. The online mode
   ([start]/[feed]/[finalize]) folds one profiled program at a time into
   the same cluster table, maintaining the generated/df_total counts
   incrementally and emitting newly-sealed or representative-changed
   clusters as it goes — the streaming campaign executes those
   immediately instead of waiting behind a clustering barrier. RAND
   pairs are drawn over the final corpus size, so they exist only in
   [finalize]. The two modes produce identical results
   (property-tested); the equivalence argument lives with the online
   code below. *)

module Accessmap = Kit_profile.Accessmap
module Stackrec = Kit_profile.Stackrec
module Kevent = Kit_kernel.Kevent
module Bitset = Kit_compact.Bitset

type strategy =
  | Df
  | Df_ia
  | Df_st of int               (* call-stack context depth *)
  | Rand of int                (* budget: number of random pairs *)

let strategy_name = function
  | Df -> "DF"
  | Df_ia -> "DF-IA"
  | Df_st k -> Printf.sprintf "DF-ST-%d" k
  | Rand _ -> "RAND"

type result = {
  strategy : strategy;
  generated : int;        (* the Table 4 "test cases" figure *)
  clusters : int;
  reps : Testcase.t list; (* executed representatives, in order *)
  df_total : int;         (* unclustered flow universe (DF row) *)
  sizes : (int * int) list;  (* cluster size -> count, ascending *)
  requested : int;        (* representatives asked for (RAND budget) *)
  delivered : int;        (* representatives actually produced *)
}

(* The k stack frames above the instrumentation site. The innermost
   frame and its immediate caller are already folded into the synthetic
   instruction address (inlining), so the context starts two frames up. *)
let context k stack =
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  match stack with
  | [] | [ _ ] -> []
  | _innermost :: _caller :: outer -> take k outer

let entry_order (a : Accessmap.entry) (b : Accessmap.entry) =
  let c = Int.compare a.Accessmap.prog b.Accessmap.prog in
  if c <> 0 then c else Int.compare a.Accessmap.sys_index b.Accessmap.sys_index

(* Group entries by [key]; each group keeps its earliest entry and size. *)
let group_entries key entries =
  let table = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = key e in
      match Hashtbl.find_opt table k with
      | None -> Hashtbl.replace table k (e, 1)
      | Some (best, n) ->
        let best = if entry_order e best < 0 then e else best in
        Hashtbl.replace table k (best, n + 1))
    entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []

let flow_of ~addr (w : Accessmap.entry) (r : Accessmap.entry) =
  { Testcase.addr; w_ip = w.Accessmap.ip; r_ip = r.Accessmap.ip;
    w_stack = w.Accessmap.stack; r_stack = r.Accessmap.stack;
    r_sys_index = r.Accessmap.sys_index }

(* Per-side cluster keys: (instruction, stack-context hash). *)
let ia_key (e : Accessmap.entry) = (e.Accessmap.ip, 0)

let st_key k (e : Accessmap.entry) =
  (e.Accessmap.ip, Hashtbl.hash (context k e.Accessmap.stack))

let keys_of_strategy = function
  | Df_ia -> Some (ia_key, ia_key)
  | Df_st k -> Some (st_key k, st_key k)
  | Df | Rand _ -> None

(* The batch pass works on arena handles; the key functions above stay
   on materialised entries for the online path. The context hash must be
   [Hashtbl.hash] of the same int list either way, or DF-ST grouping
   would split/merge differently across the two modes. *)
type key_kind = K_ia | K_st of int

let key_kind_of_strategy = function
  | Df_ia -> Some K_ia
  | Df_st k -> Some (K_st k)
  | Df | Rand _ -> None

let handle_key map kind h =
  match kind with
  | K_ia -> (Accessmap.e_ip map h, 0)
  | K_st k -> (Accessmap.e_ip map h, Hashtbl.hash (Accessmap.e_context map h ~k))

(* Cluster-size distribution: size -> number of clusters, ascending. *)
let distribution counts =
  let table = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace table n
        (1 + Option.value ~default:0 (Hashtbl.find_opt table n)))
    counts;
  Hashtbl.fold (fun n c acc -> (n, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Group a chain's entries by handle key; each group keeps its earliest
   handle (minimum (prog, sys_index), first-seen winning ties — the same
   tie-break [group_entries] applies to the newest-first entry lists)
   and its size. *)
let group_chain map kind head =
  let table = Hashtbl.create 16 in
  Accessmap.iter_chain map head (fun h ->
      let k = handle_key map kind h in
      match Hashtbl.find_opt table k with
      | None -> Hashtbl.replace table k (h, 1)
      | Some (best, n) ->
        let c = Int.compare (Accessmap.e_prog map h) (Accessmap.e_prog map best) in
        let c =
          if c <> 0 then c
          else
            Int.compare (Accessmap.e_sys_index map h)
              (Accessmap.e_sys_index map best)
        in
        let best = if c < 0 then h else best in
        Hashtbl.replace table k (best, n + 1));
  table

(* Cluster the data flows of [map] by the per-side key kind; clusters
   over the same address pair writer groups with reader groups. Works
   entirely on arena handles, materialising an entry view only per group
   best (to build candidate test cases), never per access. Returns the
   raw flow count (the DF universe — every (write entry, read entry)
   pair on a shared address), the cluster count, the sorted
   representatives and the size distribution. *)
let cluster_map map ~key_kind =
  let clusters = Hashtbl.create 256 in
  let flows = ref 0 in
  Accessmap.iter_overlap_chains map
    (fun ~addr ~whead ~wcount ~rhead ~rcount ->
      flows := !flows + (wcount * rcount);
      let wgroups = group_chain map key_kind whead in
      let rgroups = group_chain map key_kind rhead in
      let rviews =
        Hashtbl.fold (fun rk (rh, rn) acc -> (rk, Accessmap.view map rh, rn) :: acc)
          rgroups []
      in
      Hashtbl.iter
        (fun wk (wh, wn) ->
          let w = Accessmap.view map wh in
          List.iter
            (fun (rk, r, rn) ->
              let key = (wk, rk) in
              let tc =
                { Testcase.sender = w.Accessmap.prog;
                  receiver = r.Accessmap.prog;
                  flow = Some (flow_of ~addr w r) }
              in
              match Hashtbl.find_opt clusters key with
              | None -> Hashtbl.replace clusters key (tc, wn * rn)
              | Some (best, n) ->
                let best = if Testcase.compare tc best < 0 then tc else best in
                Hashtbl.replace clusters key (best, n + (wn * rn)))
            rviews)
        wgroups);
  let reps =
    Hashtbl.fold (fun _ (tc, _) acc -> tc :: acc) clusters []
    |> List.sort Testcase.compare
  in
  let sizes = distribution (Hashtbl.fold (fun _ (_, n) acc -> n :: acc) clusters []) in
  (!flows, Hashtbl.length clusters, reps, sizes)

(* RAND baseline. The budget is clamped to the corpus_size² distinct
   pairs that exist; within the clamp the fill is exact: rejection
   sampling first (preserving the historical draw sequence for sparse
   budgets), then a deterministic row-major sweep over the remaining
   pairs if the sampler keeps colliding near saturation. *)
let run_rand ~seed ~budget ~corpus_size =
  let rng = Random.State.make [| seed; 0x52414E44 |] in
  let cap = corpus_size * corpus_size in
  let effective = max 0 (min budget cap) in
  (* Dedup over the (sender, receiver) pair universe: one bit per pair
     when the universe is reasonably sized (a 4096-program corpus is
     2 MiB of bits), with the tupled hashtable kept as the fallback so
     absurd corpus sizes stay correct rather than allocating the moon. *)
  let mem, mark =
    if cap <= 1 lsl 26 then begin
      let seen = Bitset.create cap in
      ( (fun s r -> Bitset.mem seen ((s * corpus_size) + r)),
        fun s r -> Bitset.add seen ((s * corpus_size) + r) )
    end
    else begin
      let seen = Hashtbl.create (max 16 (min effective 65536)) in
      ( (fun s r -> Hashtbl.mem seen (s, r)),
        fun s r -> Hashtbl.replace seen (s, r) () )
    end
  in
  let nseen = ref 0 in
  let reps = ref [] in
  let take s r =
    mark s r;
    incr nseen;
    reps := { Testcase.sender = s; receiver = r; flow = None } :: !reps
  in
  let attempts = ref 0 in
  let max_attempts = 16 * cap in
  while !nseen < effective && !attempts < max_attempts do
    incr attempts;
    let s = Random.State.int rng corpus_size in
    let r = Random.State.int rng corpus_size in
    if not (mem s r) then take s r
  done;
  for s = 0 to corpus_size - 1 do
    for r = 0 to corpus_size - 1 do
      if !nseen < effective && not (mem s r) then take s r
    done
  done;
  (List.rev !reps, effective)

let rand_result strategy ~budget ~df_total reps delivered =
  { strategy; generated = delivered; clusters = delivered; reps; df_total;
    sizes = (if delivered = 0 then [] else [ (1, delivered) ]);
    requested = budget; delivered }

let run strategy ?(seed = 0) ~corpus_size map =
  match strategy with
  | Df ->
    let total = Dataflow.total_flows map in
    { strategy; generated = total; clusters = total; reps = [];
      df_total = total;
      sizes = (if total = 0 then [] else [ (1, total) ]);
      requested = 0; delivered = 0 }
  | Df_ia | Df_st _ ->
    let key_kind =
      match key_kind_of_strategy strategy with
      | Some k -> k
      | None -> assert false
    in
    let flows, clusters, reps, sizes = cluster_map map ~key_kind in
    { strategy; generated = clusters; clusters; reps; df_total = flows;
      sizes; requested = clusters; delivered = clusters }
  | Rand budget ->
    let reps, delivered = run_rand ~seed ~budget ~corpus_size in
    rand_result strategy ~budget ~df_total:(Dataflow.total_flows map) reps
      delivered

(* -- online clustering ----------------------------------------------------

   Fold one profiled program at a time into the cluster table. The
   equivalence with [cluster_map] rests on three facts:

   1. Group bests are stable once created. Programs are fed in corpus
      order, so a (addr, key) group's best entry — minimum (prog,
      sys_index) — is fixed by the first program contributing to the
      group; later programs only grow the count. Within the creating
      program the best is computed exactly like the batch
      [group_entries] pass (same reversed entry order, same tie-break).

   2. Candidates are immutable. The candidate test case of an
      (addr, wkey, rkey) triple is flow_of(best_w, best_r); both bests
      are final when the pair first coexists, which is the moment the
      candidate is created.

   3. The representative is the minimum, under the *total* Testcase
      order, over a growing set of immutable candidates — the order the
      candidates arrive in cannot change the minimum, so the final
      representative equals the batch one. A new candidate below the
      current representative fires a [Rep_changed] event; the streaming
      campaign re-executes that cluster.

   Cluster sizes and the DF universe update by delta: with per-address
   old counts w, r and program deltas Δw, Δr,
       Δ(w·r) = Δw·(r + Δr) + w·Δr
   which the two count loops below implement per group pair (and per
   entry total for df_total). *)

type event =
  | Sealed of int * Testcase.t       (* new cluster: id, representative *)
  | Rep_changed of int * Testcase.t  (* better representative found *)

type group = { g_best : Accessmap.entry; mutable g_n : int }

type side = {
  s_groups : (int * int, group) Hashtbl.t;
  mutable s_entries : int;
}

type addr_state = { aw : side; ar : side }

type cluster = { cl_id : int; mutable cl_rep : Testcase.t; mutable cl_n : int }

type state = {
  st_strategy : strategy;
  st_seed : int;
  st_keys : ((Accessmap.entry -> int * int) * (Accessmap.entry -> int * int))
      option;
  mutable st_fed : int;                 (* programs folded, in order *)
  st_addrs : (int, addr_state) Hashtbl.t;
  st_clusters : ((int * int) * (int * int), cluster) Hashtbl.t;
  mutable st_next_id : int;
  mutable st_df_total : int;
  mutable st_peak_pairs : int;          (* max group pairs in one feed *)
}

let start ?(seed = 0) strategy =
  { st_strategy = strategy; st_seed = seed;
    st_keys = keys_of_strategy strategy; st_fed = 0;
    st_addrs = Hashtbl.create 256; st_clusters = Hashtbl.create 256;
    st_next_id = 0; st_df_total = 0; st_peak_pairs = 0 }

let fed st = st.st_fed
let peak_feed_pairs st = st.st_peak_pairs

let fresh_side () = { s_groups = Hashtbl.create 8; s_entries = 0 }

let addr_state st addr =
  match Hashtbl.find_opt st.st_addrs addr with
  | Some a -> a
  | None ->
    let a = { aw = fresh_side (); ar = fresh_side () } in
    Hashtbl.add st.st_addrs addr a;
    a

let sorted_groups side =
  Hashtbl.fold (fun k g acc -> (k, g) :: acc) side.s_groups []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

(* Merge a program's per-key contributions into a side. Returns, sorted
   by key, each touched key with its delta count and whether the group
   is new at this address. *)
let merge_side side news =
  List.map
    (fun (k, (best, n)) ->
      match Hashtbl.find_opt side.s_groups k with
      | None ->
        Hashtbl.replace side.s_groups k { g_best = best; g_n = n };
        (k, n, true)
      | Some g ->
        g.g_n <- g.g_n + n;
        (k, n, false))
    (List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) news)

(* Visit a candidate representative for cluster (wk, rk): create the
   cluster (Sealed) or lower its representative (Rep_changed). *)
let candidate st events ~addr (wk, (wg : group)) (rk, (rg : group)) =
  let tc =
    { Testcase.sender = wg.g_best.Accessmap.prog;
      receiver = rg.g_best.Accessmap.prog;
      flow = Some (flow_of ~addr wg.g_best rg.g_best) }
  in
  match Hashtbl.find_opt st.st_clusters (wk, rk) with
  | None ->
    let id = st.st_next_id in
    st.st_next_id <- id + 1;
    Hashtbl.replace st.st_clusters (wk, rk) { cl_id = id; cl_rep = tc; cl_n = 0 };
    events := Sealed (id, tc) :: !events
  | Some cl ->
    if Testcase.compare tc cl.cl_rep < 0 then begin
      cl.cl_rep <- tc;
      events := Rep_changed (cl.cl_id, tc) :: !events
    end

let feed_addr st events ~addr ~wnews ~rnews =
  let a = addr_state st addr in
  (* DF universe delta from raw entry counts (both sides must exist). *)
  let wadd = List.fold_left (fun acc (_, (_, n)) -> acc + n) 0 wnews in
  let radd = List.fold_left (fun acc (_, (_, n)) -> acc + n) 0 rnews in
  st.st_df_total <-
    st.st_df_total + (wadd * (a.ar.s_entries + radd))
    + (a.aw.s_entries * radd);
  a.aw.s_entries <- a.aw.s_entries + wadd;
  a.ar.s_entries <- a.ar.s_entries + radd;
  match st.st_keys with
  | None -> 0
  | Some _ ->
    let wtouched = merge_side a.aw wnews in
    let rtouched = merge_side a.ar rnews in
    let wall = sorted_groups a.aw in
    let rall = sorted_groups a.ar in
    (* Candidates: a (wk, rk) pair first coexists at this address when
       either side's group is new here; both bests are final, so the
       candidate is immutable (new×new pairs are visited once, by the
       writer loop). *)
    List.iter
      (fun (wk, _, wnew) ->
        if wnew then
          let wg = Hashtbl.find a.aw.s_groups wk in
          List.iter (fun (rk, rg) -> candidate st events ~addr (wk, wg) (rk, rg))
            rall)
      wtouched;
    let wnew_keys =
      List.filter_map (fun (k, _, n) -> if n then Some k else None) wtouched
    in
    List.iter
      (fun (rk, _, rnew) ->
        if rnew then
          let rg = Hashtbl.find a.ar.s_groups rk in
          List.iter
            (fun (wk, wg) ->
              if not (List.mem wk wnew_keys) then
                candidate st events ~addr (wk, wg) (rk, rg))
            wall)
      rtouched;
    (* Count deltas: Δ(w·r) = Δw·r_new + w_old·Δr per group pair. *)
    let pairs = ref 0 in
    let wdelta wk =
      List.fold_left
        (fun acc (k, d, _) -> if k = wk then acc + d else acc)
        0 wtouched
    in
    List.iter
      (fun (wk, dw, _) ->
        List.iter
          (fun (rk, (rg : group)) ->
            incr pairs;
            let cl = Hashtbl.find st.st_clusters (wk, rk) in
            cl.cl_n <- cl.cl_n + (dw * rg.g_n))
          rall)
      wtouched;
    List.iter
      (fun (rk, dr, _) ->
        List.iter
          (fun (wk, (wg : group)) ->
            incr pairs;
            let w_old = wg.g_n - wdelta wk in
            if w_old > 0 then
              let cl = Hashtbl.find st.st_clusters (wk, rk) in
              cl.cl_n <- cl.cl_n + (w_old * dr))
          wall)
      rtouched;
    !pairs

let feed st ~prog (accesses : Stackrec.access list) =
  if prog <> st.st_fed then
    invalid_arg "Cluster.feed: programs must be fed in corpus order";
  st.st_fed <- prog + 1;
  (* Split into per-address, per-side entry lists. Prepending mirrors
     Accessmap.add, so per-program group bests (including ties on
     (prog, sys_index)) match the batch pass exactly. *)
  let waccs = Hashtbl.create 16 and raccs = Hashtbl.create 16 in
  List.iter
    (fun (acc : Stackrec.access) ->
      let entry =
        { Accessmap.prog; sys_index = acc.Stackrec.sys_index;
          ip = acc.Stackrec.ip; stack = acc.Stackrec.stack;
          stack_hash = acc.Stackrec.stack_hash }
      in
      let table =
        match acc.Stackrec.rw with
        | Kevent.Write -> waccs
        | Kevent.Read -> raccs
      in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt table acc.Stackrec.addr)
      in
      Hashtbl.replace table acc.Stackrec.addr (entry :: prev))
    accesses;
  let addrs =
    Hashtbl.fold (fun addr _ acc -> addr :: acc) waccs []
    |> Hashtbl.fold (fun addr _ acc -> addr :: acc) raccs
    |> List.sort_uniq Int.compare
  in
  let events = ref [] in
  let pairs = ref 0 in
  List.iter
    (fun addr ->
      let group key table =
        match Hashtbl.find_opt table addr with
        | None -> []
        | Some entries -> (
          match key with
          | Some key -> group_entries key entries
          | None ->
            (* Count-only strategies still need entry totals. *)
            [ ((0, 0), (List.hd entries, List.length entries)) ])
      in
      let wnews = group (Option.map fst st.st_keys) waccs in
      let rnews = group (Option.map snd st.st_keys) raccs in
      pairs := !pairs + feed_addr st events ~addr ~wnews ~rnews)
    addrs;
  if !pairs > st.st_peak_pairs then st.st_peak_pairs <- !pairs;
  List.rev !events

let finalize st =
  let strategy = st.st_strategy in
  match strategy with
  | Df ->
    let total = st.st_df_total in
    { strategy; generated = total; clusters = total; reps = [];
      df_total = total;
      sizes = (if total = 0 then [] else [ (1, total) ]);
      requested = 0; delivered = 0 }
  | Df_ia | Df_st _ ->
    let reps =
      Hashtbl.fold (fun _ cl acc -> cl.cl_rep :: acc) st.st_clusters []
      |> List.sort Testcase.compare
    in
    let sizes =
      distribution
        (Hashtbl.fold (fun _ cl acc -> cl.cl_n :: acc) st.st_clusters [])
    in
    let clusters = Hashtbl.length st.st_clusters in
    { strategy; generated = clusters; clusters; reps; df_total = st.st_df_total;
      sizes; requested = clusters; delivered = clusters }
  | Rand budget ->
    (* RAND draws over the corpus size, so its pairs exist only once the
       corpus is complete: they are drawn here, never sealed by [feed]. *)
    let reps, delivered =
      run_rand ~seed:st.st_seed ~budget ~corpus_size:st.st_fed
    in
    rand_result strategy ~budget ~df_total:st.st_df_total reps delivered
