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

   Every campaign clusters online ([start]/[feed]/[finalize]): one
   profiled program at a time is folded into the cluster table, which
   emits newly-sealed or representative-changed clusters as it goes —
   the streaming campaign executes those immediately instead of waiting
   behind a clustering barrier. RAND pairs are drawn over the final
   corpus size, so they exist only in [finalize]. The batch [run] takes
   a fully built access map and clusters it in one pass; it is the
   reference model the online table is checked against, in tests and in
   the benchmark's replay. The two produce identical results
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

let compare_key (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

(* Group one program's entries at one address by [key]; each group keeps
   its earliest entry and size. A program has a handful of accesses per
   address, so an association list beats a table. *)
let group_entries key entries =
  List.fold_left
    (fun groups e ->
      let k = key e in
      let rec bump = function
        | [] -> [ (k, (e, 1)) ]
        | ((k', (best, n)) as g) :: rest ->
          if compare_key k k' = 0 then
            (k, ((if entry_order e best < 0 then e else best), n + 1)) :: rest
          else g :: bump rest
      in
      bump groups)
    [] entries

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
  (* A filled budget skips the sweep, which would otherwise walk all
     corpus_size² pairs for nothing. *)
  if !nseen < effective then
    for s = 0 to corpus_size - 1 do
      for r = 0 to corpus_size - 1 do
        if !nseen < effective && not (mem s r) then take s r
      done
    done;
  (List.rev !reps, effective)

let unclustered ?(seed = 0) ~corpus_size ~df_total strategy =
  match strategy with
  | Df ->
    { strategy; generated = df_total; clusters = df_total; reps = [];
      df_total;
      sizes = (if df_total = 0 then [] else [ (1, df_total) ]);
      requested = 0; delivered = 0 }
  | Rand budget ->
    let reps, delivered = run_rand ~seed ~budget ~corpus_size in
    { strategy; generated = delivered; clusters = delivered; reps; df_total;
      sizes = (if delivered = 0 then [] else [ (1, delivered) ]);
      requested = budget; delivered }
  | Df_ia | Df_st _ ->
    invalid_arg "Cluster.unclustered: a keyed strategy needs a cluster table"

let keyed = function Df_ia | Df_st _ -> true | Df | Rand _ -> false

let run strategy ?seed ~corpus_size map =
  match key_kind_of_strategy strategy with
  | Some key_kind ->
    let flows, clusters, reps, sizes = cluster_map map ~key_kind in
    { strategy; generated = clusters; clusters; reps; df_total = flows;
      sizes; requested = clusters; delivered = clusters }
  | None ->
    unclustered ?seed ~corpus_size ~df_total:(Dataflow.total_flows map)
      strategy

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

   So a feed visits only the group pairs a new group creates. Cluster
   sizes are not kept by delta: [finalize] folds them once over every
   address's group pairs, as the batch pass does, which costs a feed
   nothing when no group is new. The DF universe does update by delta,
   one multiply per touched address: with old entry counts w, r and
   program deltas Δw, Δr, Δ(w·r) = Δw·(r + Δr) + w·Δr. *)

type event =
  | Sealed of int * Testcase.t       (* new cluster: id, representative *)
  | Rep_changed of int * Testcase.t  (* better representative found *)

type group = { g_best : Accessmap.entry; mutable g_n : int }

type side = {
  s_groups : (int * int, group) Hashtbl.t;
  mutable s_sorted : ((int * int) * group) list;
      (* [s_groups] in key order, rebuilt only when a group is added *)
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
  mutable st_peak_pairs : int;          (* max candidates visited in one feed *)
}

let start ?(seed = 0) strategy =
  { st_strategy = strategy; st_seed = seed;
    st_keys = keys_of_strategy strategy; st_fed = 0;
    st_addrs = Hashtbl.create 256; st_clusters = Hashtbl.create 256;
    st_next_id = 0; st_df_total = 0; st_peak_pairs = 0 }

let fed st = st.st_fed
let peak_feed_pairs st = st.st_peak_pairs

let fresh_side () = { s_groups = Hashtbl.create 8; s_sorted = []; s_entries = 0 }

let addr_state st addr =
  match Hashtbl.find_opt st.st_addrs addr with
  | Some a -> a
  | None ->
    let a = { aw = fresh_side (); ar = fresh_side () } in
    Hashtbl.add st.st_addrs addr a;
    a

let by_key (a, _) (b, _) = compare_key a b

(* Merge a program's per-key contributions into a side, and return the
   groups that are new at this address, in key order. *)
let merge_side side news =
  let fresh =
    List.filter_map
      (fun (k, (best, n)) ->
        match Hashtbl.find_opt side.s_groups k with
        | None ->
          let g = { g_best = best; g_n = n } in
          Hashtbl.replace side.s_groups k g;
          Some (k, g)
        | Some g ->
          g.g_n <- g.g_n + n;
          None)
      (List.sort by_key news)
  in
  if fresh <> [] then side.s_sorted <- List.merge by_key side.s_sorted fresh;
  fresh

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

(* Fold one program's writes [ws] and reads [rs] at [addr], each newest
   first, into the table. *)
let feed_addr st events ~prog ~addr ~ws ~rs =
  let a = addr_state st addr in
  (* DF universe delta from raw entry counts (both sides must exist). *)
  let wadd = List.length ws and radd = List.length rs in
  st.st_df_total <-
    st.st_df_total + (wadd * (a.ar.s_entries + radd))
    + (a.aw.s_entries * radd);
  a.aw.s_entries <- a.aw.s_entries + wadd;
  a.ar.s_entries <- a.ar.s_entries + radd;
  match st.st_keys with
  | None -> 0
  | Some (wkey, rkey) ->
    let entry (acc : Stackrec.access) =
      { Accessmap.prog; sys_index = acc.Stackrec.sys_index;
        ip = acc.Stackrec.ip; stack = acc.Stackrec.stack;
        stack_hash = acc.Stackrec.stack_hash }
    in
    let wfresh = merge_side a.aw (group_entries wkey (List.map entry ws)) in
    let rfresh = merge_side a.ar (group_entries rkey (List.map entry rs)) in
    (* Candidates: a (wk, rk) pair first coexists at this address when
       either side's group is new here; both bests are final, so the
       candidate is immutable (new×new pairs are visited once, by the
       writer loop). *)
    let pairs = ref 0 in
    let visit w r =
      incr pairs;
      candidate st events ~addr w r
    in
    List.iter (fun w -> List.iter (visit w) a.ar.s_sorted) wfresh;
    List.iter
      (fun r ->
        List.iter
          (fun ((wk, _) as w) -> if not (List.mem_assoc wk wfresh) then visit w r)
          a.aw.s_sorted)
      rfresh;
    !pairs

let feed st ~prog (accesses : Stackrec.access list) =
  if prog <> st.st_fed then
    invalid_arg "Cluster.feed: programs must be fed in corpus order";
  st.st_fed <- prog + 1;
  (* Address order, program order within an address; splitting a run
     by side then prepends, giving each side newest first — the order of
     Accessmap.add's chains, so per-program group bests (including ties
     on (prog, sys_index)) match the batch pass exactly. *)
  let by_addr =
    List.stable_sort
      (fun (a : Stackrec.access) (b : Stackrec.access) ->
        Int.compare a.Stackrec.addr b.Stackrec.addr)
      accesses
  in
  let events = ref [] in
  let pairs = ref 0 in
  let rec walk = function
    | [] -> ()
    | (first : Stackrec.access) :: _ as run ->
      let addr = first.Stackrec.addr in
      let rec split ws rs = function
        | (acc : Stackrec.access) :: rest when acc.Stackrec.addr = addr -> (
          match acc.Stackrec.rw with
          | Kevent.Write -> split (acc :: ws) rs rest
          | Kevent.Read -> split ws (acc :: rs) rest)
        | rest ->
          pairs := !pairs + feed_addr st events ~prog ~addr ~ws ~rs;
          walk rest
      in
      split [] [] run
  in
  walk by_addr;
  if !pairs > st.st_peak_pairs then st.st_peak_pairs <- !pairs;
  List.rev !events

(* Cluster sizes, folded afresh over every address's group pairs: every
   pair that coexists has a cluster, sealed when it first did. *)
let fold_sizes st =
  Hashtbl.iter (fun _ cl -> cl.cl_n <- 0) st.st_clusters;
  Hashtbl.iter
    (fun _ a ->
      List.iter
        (fun (wk, wg) ->
          List.iter
            (fun (rk, rg) ->
              let cl = Hashtbl.find st.st_clusters (wk, rk) in
              cl.cl_n <- cl.cl_n + (wg.g_n * rg.g_n))
            a.ar.s_sorted)
        a.aw.s_sorted)
    st.st_addrs

let finalize st =
  let strategy = st.st_strategy in
  if not (keyed strategy) then
    (* RAND draws over the corpus size, so its pairs exist only once the
       corpus is complete: they are drawn here, never sealed by [feed]. *)
    unclustered ~seed:st.st_seed ~corpus_size:st.st_fed
      ~df_total:st.st_df_total strategy
  else begin
    fold_sizes st;
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
  end
