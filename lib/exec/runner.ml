(* Test case execution and non-determinism identification (paper,
   sections 4.2 and 4.3.2), in three modes.

   Sequential (the paper's two-phase mode): execution A runs the sender
   program in the sender container to completion and then the receiver
   program in the receiver container; execution B reloads the snapshot
   and runs the receiver alone. Both receiver traces are decoded to
   ASTs. The receiver is additionally re-run several times with
   different clock base offsets; result nodes that vary get their det
   flag cleared, and the flags are applied to both traces before
   comparison.

   Interleaved ([run_interleaved]): execution A instead runs sender and
   receiver as two cooperatively scheduled tasks under [Kernel.Sched] —
   every instrumented memory access is a yield point, and the schedule
   is a pure function of a seed, so the same seed always reproduces the
   byte-identical trace. The [Sched.Sequential] schedule degenerates to
   sender-then-receiver and matches [run_pair] byte-for-byte.

   Schedule search ([search_schedules]): enumerate seeds 0..N-1 for a
   test case, prune seeds that cannot differ, execute one
   representative per remaining equivalence class, and report the
   divergences no sequential order exposes. Pruning is partial-order
   reduction over the two programs' solo access sequences: two
   schedules that order every conflicting access pair (both programs
   touch the address, at least one writes) the same way are equivalent,
   so only the first seed of each class runs. The abstract replay
   ([Sched.walk]) is driven by the same decision function as the real
   driver, so it orders accesses exactly as execution does whenever
   interference does not change a program's access count.

   Four memo caches cut the execution count, all size-capped with LRU
   eviction (lookups refresh recency, so hot entries survive large
   campaigns — this replaced an earlier FIFO ring that evicted the
   hottest receivers precisely because they were old). Every cache is
   keyed by the programs themselves, bucketed by [Program.hash]: that
   hash is 30 bits and collides across large corpora, so a hit needs
   equal programs, never an equal hash alone.

   - the non-determinism mask cache, keyed on the receiver program, as
     the paper saves masks to disk between campaigns;
   - the baseline cache, same key: execution B and the mask's
     reference run are the receiver solo from the pristine snapshot at
     the reference clock base — a function of the receiver program
     only, so test cases sharing a receiver share the trace. Decoded
     ASTs are immutable, so sharing is safe. The cache is bypassed
     entirely while the fault plane has armed faults: a poisoned VM
     must not populate it, and a cached trace must not swallow a fault
     that a real execution would have consumed. (A receiver whose solo
     run crashes or hangs never completes its first execution, so it
     can never be cached.)
   - the solo access-sequence cache, keyed on (container pid, program):
     schedule search needs each program's solo instrumented access
     sequence, which depends on which container runs it (the namespace
     ids differ), hence the wider key. Solo artifacts (baseline, mask,
     accesses) are schedule-independent because a solo run has exactly
     one task, so none of these three is keyed by schedule.
   - the search memo, keyed on (sender, receiver, schedule count):
     with no fault armed a schedule search is a pure function of the
     pair — its classes, its interleaved executions and their judgement
     against the receiver's baseline and mask — so test cases sharing a
     pair share the search. An entry also records the fingerprint of
     the sequential masked diffs the search dropped findings against,
     and a hit needs that to match too. Bypassed exactly when the
     baseline cache is. Within one search, the judgement of each
     distinct receiver result is computed once (see
     [search_schedules]).

   Execution and cache counters live in the observability plane's
   metrics registry ("exec.executions", "exec.mask_hits",
   "exec.mask_misses", "exec.mask_evictions", "exec.baseline_hits",
   "exec.baseline_misses", "exec.search_hits", "exec.search_misses") as
   always-on counters: they are campaign accounting, so they keep
   counting even through a disabled bundle. Registry counters are
   monotone and may be shared across runner incarnations (the
   supervisor reboots runners into the same bundle), so each runner
   captures the counter values at creation and reports per-instance
   deltas. *)

module Program = Kit_abi.Program
module Interp = Kit_kernel.Interp
module Fault = Kit_kernel.Fault
module Sched = Kit_kernel.Sched
module Kevent = Kit_kernel.Kevent
module Ctx = Kit_kernel.Ctx
module State = Kit_kernel.State
module Ast = Kit_trace.Ast
module Decode = Kit_trace.Decode
module Compare = Kit_trace.Compare
module Nondet = Kit_trace.Nondet
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Fnv = Kit_compact.Fnv
module Keytab = Kit_compact.Keytab

(* A divergence only an interleaved schedule exposes: the masked diffs
   of one schedule class representative against the receiver's solo
   trace, fingerprinted schedule-independently so the same root cause
   found by several classes collapses into one finding carrying every
   reproducing seed. *)
type concurrent = {
  cc_seeds : int list;              (* reproducing schedule seeds, ascending *)
  cc_fingerprint : int;             (* Compare.fingerprint_diffs of cc_diffs *)
  cc_diffs : Compare.diff list;     (* masked diffs vs the solo trace *)
  cc_raw_diffs : Compare.diff list; (* the same comparison before masking *)
  cc_interfered : int list;         (* receiver call indices, after masking *)
}

type search = {
  sr_schedules : int;               (* candidate seeds examined *)
  sr_classes : int;                 (* POR equivalence classes among them *)
  sr_executed : int;                (* class representatives whose outcome
                                       the search carries *)
  sr_pruned : int;                  (* sr_schedules - sr_executed *)
  sr_skipped : int;                 (* representatives lost to crash/hang *)
  sr_findings : concurrent list;
}

let empty_search =
  { sr_schedules = 0; sr_classes = 0; sr_executed = 0; sr_pruned = 0;
    sr_skipped = 0; sr_findings = [] }

(* A cache key: the program, bucketed by its hash. Structural equality
   on programs is [Program.equal], so a lookup hits only an equal
   program, whatever its hash collides with. *)
type pkey = int * Program.t

let pkey p : pkey = (Program.hash p, p)

type t = {
  env : Env.t;
  obs : Obs.t;
  reruns : int;
  rerun_delta : int;
  mask_cache : (pkey, Ast.t) Lru.t;      (* receiver -> mask *)
  baseline : bool;                       (* baseline and search memos on? *)
  baseline_cache : (pkey, Ast.t) Lru.t;  (* receiver -> solo trace at base0 *)
  access_cache : (int * pkey, (int * bool) array) Lru.t;
                                         (* (pid, program) -> solo
                                            (addr, is_write) sequence *)
  search_cache : (pkey * pkey * int, int * search) Lru.t;
                                         (* (sender, receiver, schedules)
                                            -> (sequential fingerprint,
                                            search) *)
  c_execs : Metrics.counter;             (* single source of truth... *)
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_bhits : Metrics.counter;
  c_bmisses : Metrics.counter;
  c_shits : Metrics.counter;
  c_smisses : Metrics.counter;
  execs0 : int;                          (* ...read as deltas from here *)
  hits0 : int;
  misses0 : int;
  evictions0 : int;
  bhits0 : int;
  bmisses0 : int;
  shits0 : int;
  smisses0 : int;
}

let create ?(reruns = 3) ?(rerun_delta = 7_777) ?(mask_cache_cap = 4096)
    ?(baseline_cache = true) ?(baseline_cache_cap = 4096)
    ?(obs = Obs.nop) env =
  let counter name = Metrics.counter ~always:true obs.Obs.metrics name in
  let c_execs = counter "exec.executions" in
  let c_hits = counter "exec.mask_hits" in
  let c_misses = counter "exec.mask_misses" in
  let c_evictions = counter "exec.mask_evictions" in
  let c_bhits = counter "exec.baseline_hits" in
  let c_bmisses = counter "exec.baseline_misses" in
  let c_shits = counter "exec.search_hits" in
  let c_smisses = counter "exec.search_misses" in
  let cap = max 1 baseline_cache_cap in
  { env; obs; reruns; rerun_delta;
    mask_cache =
      Lru.create (max 1 mask_cache_cap)
        ~on_evict:(fun _ _ -> Metrics.inc c_evictions);
    baseline = baseline_cache;
    baseline_cache = Lru.create cap;
    access_cache = Lru.create cap;
    search_cache = Lru.create cap;
    c_execs; c_hits; c_misses; c_evictions; c_bhits; c_bmisses; c_shits;
    c_smisses;
    execs0 = Metrics.counter_value c_execs;
    hits0 = Metrics.counter_value c_hits;
    misses0 = Metrics.counter_value c_misses;
    evictions0 = Metrics.counter_value c_evictions;
    bhits0 = Metrics.counter_value c_bhits;
    bmisses0 = Metrics.counter_value c_bmisses;
    shits0 = Metrics.counter_value c_shits;
    smisses0 = Metrics.counter_value c_smisses }

let executions t = Metrics.counter_value t.c_execs - t.execs0

let run_receiver t ~base receiver =
  Env.reset t.env ~base;
  Metrics.inc t.c_execs;
  let results = Interp.run t.env.Env.kernel ~pid:t.env.Env.receiver_pid receiver in
  Decode.decode_trace results

let run_pair t ~base sender receiver =
  Env.reset t.env ~base;
  Metrics.inc t.c_execs;
  let _ : Interp.result list =
    Interp.run t.env.Env.kernel ~pid:t.env.Env.sender_pid sender
  in
  let results = Interp.run t.env.Env.kernel ~pid:t.env.Env.receiver_pid receiver in
  Decode.decode_trace results

(* Interleaved execution A: sender and receiver run as two schedulable
   tasks; [Kernel.Sched] takes a decision at every instrumented memory
   access, picking the next task as a pure function of the schedule.
   [Sched.Sequential] always picks the sender first and reproduces
   [run_pair] byte-for-byte. A panic or fuel exhaustion in either task
   unwinds both and re-raises, matching the sequential crash paths.
   [interleave] returns the receiver's raw results, which schedule
   search judges before decoding. *)
let interleave t ~schedule ~base sender receiver =
  Env.reset t.env ~base;
  Metrics.inc t.c_execs;
  let k = t.env.Env.kernel in
  let results = ref [] in
  let tasks =
    [ (fun () ->
        let _ : Interp.result list =
          Interp.run k ~pid:t.env.Env.sender_pid sender
        in
        ());
      (fun () -> results := Interp.run k ~pid:t.env.Env.receiver_pid receiver)
    ]
  in
  let _decisions : int = Sched.run ~schedule k.State.ctx tasks in
  !results

let run_interleaved t ~schedule ~base sender receiver =
  Decode.decode_trace (interleave t ~schedule ~base sender receiver)

(* The solo instrumented access sequence of a program run in container
   [pid] — the raw material of partial-order reduction. Captured with a
   profiling sink, whose in_irq/instrumented filters coincide exactly
   with the scheduler's yield points, so access k of this sequence is
   what resume segment k+1 of an interleaved task performs. Memoized on
   (pid, program): the same program accesses different namespace ids
   in different containers. Not cached while faults are armed, for
   the same reasons as the baseline cache. *)
let solo_accesses t ~pid prog =
  let armed = Fault.schedule (Env.fault t.env) <> [] in
  let key = (pid, pkey prog) in
  match if armed then None else Lru.find t.access_cache key with
  | Some accesses -> accesses
  | None ->
    Env.reset t.env ~base:t.env.Env.base0;
    Metrics.inc t.c_execs;
    let k = t.env.Env.kernel in
    let acc = ref [] in
    let sink = function
      | Kevent.Mem { addr; rw; _ } ->
        acc := (addr, rw = Kevent.Write) :: !acc
      | _ -> ()
    in
    Ctx.with_sink k.State.ctx sink (fun () ->
        let _ : Interp.result list = Interp.run k ~pid prog in
        ());
    let accesses = Array.of_list (List.rev !acc) in
    if not armed then Lru.add t.access_cache key accesses;
    accesses

(* Partial-order reduction over candidate seeds 0..schedules-1. A
   conflict address is one both programs touch with at least one write;
   a schedule's class key is its merged access order ([Sched.walk])
   projected onto conflict addresses, each access coded as
   (addr * 4) + (task * 2) + is_write. Schedules with equal keys order
   every conflicting pair identically, so their executions coincide up
   to what POR cannot see: interference changing a task's access count,
   or a virtual-clock value (see DESIGN §15 for the contract). The key
   is also compared against the all-sender-first order: classes
   equivalent to it are already covered by the sequential phase and
   never execute. *)
type sched_class = {
  cls_seeds : int list;        (* member seeds, ascending; head = representative *)
  cls_sequential : bool;       (* equivalent to the sequential order *)
}

(* Each access's key code, or -1 off conflict addresses: computed once
   per case, so a walk only indexes. *)
let conflict_codes sa ra =
  let written accesses =                (* addr -> written at least once *)
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun (addr, w) ->
        Hashtbl.replace tbl addr (w || Hashtbl.find_opt tbl addr = Some true))
      accesses;
    tbl
  in
  let sw = written sa and rw = written ra in
  let conflicting addr =
    match Hashtbl.find_opt sw addr, Hashtbl.find_opt rw addr with
    | Some ws, Some wr -> ws || wr
    | _ -> false
  in
  let codes task =
    Array.map (fun (addr, w) ->
        if conflicting addr then (addr * 4) + (task * 2) + Bool.to_int w else -1)
  in
  (codes 0 sa, codes 1 ra)

let schedule_classes t ~schedules ~sender ~receiver =
  let sa = solo_accesses t ~pid:t.env.Env.sender_pid sender in
  let ra = solo_accesses t ~pid:t.env.Env.receiver_pid receiver in
  let scodes, rcodes = conflict_codes sa ra in
  let counts = [| Array.length sa; Array.length ra |] in
  (* Every schedule visits every access once, so all keys have the same
     length; [key_of] writes the key into [scratch] and returns its FNV
     hash, folded in on the way. *)
  let conflicts codes =
    Array.fold_left (fun n c -> if c >= 0 then n + 1 else n) 0 codes
  in
  let scratch = Array.make (conflicts scodes + conflicts rcodes) 0 in
  let key_of schedule =
    let len = ref 0 and h = ref Fnv.init in
    Sched.walk schedule counts (fun task i ->
        let c = if task = 0 then scodes.(i) else rcodes.(i) in
        if c >= 0 then begin
          scratch.(!len) <- c;
          incr len;
          h := Fnv.int !h c
        end);
    Fnv.to_int !h
  in
  let seq_hash = key_of Sched.Sequential in
  let seq_key = Array.copy scratch in
  let keys = Keytab.create 64 in
  let members = Array.make (max 0 schedules) [] in (* id -> seeds, descending *)
  for s = 0 to schedules - 1 do
    let id = Keytab.id keys ~hash:(key_of (Sched.Seeded s)) scratch in
    members.(id) <- s :: members.(id)
  done;
  let seq_id = Keytab.find keys ~hash:seq_hash seq_key in
  List.init (Keytab.length keys) (fun id ->
      { cls_seeds = List.rev members.(id); cls_sequential = seq_id = Some id })

(* Whether the baseline cache and the search memo are in use: they are
   bypassed when disabled and while the fault plane is armed. *)
let memoizing t = t.baseline && Fault.schedule (Env.fault t.env) = []

(* The receiver's solo trace from the pristine snapshot at the reference
   clock base — execution B, and the mask's reference run. Memoized per
   receiver program unless disabled or the fault plane is armed. *)
let baseline_trace t receiver =
  if not (memoizing t) then run_receiver t ~base:t.env.Env.base0 receiver
  else begin
    let key = pkey receiver in
    match Lru.find t.baseline_cache key with
    | Some trace ->
      Metrics.inc t.c_bhits;
      trace
    | None ->
      Metrics.inc t.c_bmisses;
      let trace = run_receiver t ~base:t.env.Env.base0 receiver in
      Lru.add t.baseline_cache key trace;
      trace
  end

(* The non-determinism mask of [receiver]: its solo trace with det flags
   cleared wherever re-executions with shifted clock bases disagree. *)
let nondet_mask t receiver =
  let key = pkey receiver in
  match Lru.find t.mask_cache key with
  | Some mask ->
    Metrics.inc t.c_hits;
    mask
  | None ->
    Metrics.inc t.c_misses;
    let base = t.env.Env.base0 in
    let reference = baseline_trace t receiver in
    let alternatives =
      List.init t.reruns (fun k ->
          run_receiver t ~base:(base + ((k + 1) * t.rerun_delta)) receiver)
    in
    let mask = Nondet.mark reference alternatives in
    Lru.add t.mask_cache key mask;
    mask

(* Thin reads over the registry counters — per-instance deltas. *)
let mask_cache_stats t =
  ( Metrics.counter_value t.c_hits - t.hits0,
    Metrics.counter_value t.c_misses - t.misses0,
    Lru.length t.mask_cache )

let mask_evictions t = Metrics.counter_value t.c_evictions - t.evictions0

let baseline_cache_stats t =
  ( Metrics.counter_value t.c_bhits - t.bhits0,
    Metrics.counter_value t.c_bmisses - t.bmisses0,
    Lru.length t.baseline_cache )

let search_cache_stats t =
  ( Metrics.counter_value t.c_shits - t.shits0,
    Metrics.counter_value t.c_smisses - t.smisses0,
    Lru.length t.search_cache )

type outcome = {
  trace_a : Ast.t;                  (* receiver trace, sender ran first *)
  trace_b : Ast.t;                  (* receiver trace, solo *)
  raw_diffs : Compare.diff list;    (* before non-determinism masking *)
  masked_diffs : Compare.diff list; (* after masking *)
  interfered : int list;            (* receiver call indices, after masking *)
}

(* Execute one test case. *)
let execute t ~sender ~receiver =
  let base = t.env.Env.base0 in
  let trace_a = run_pair t ~base sender receiver in
  let trace_b = baseline_trace t receiver in
  let raw_diffs = Compare.diff_trees trace_a trace_b in
  if raw_diffs = [] then
    { trace_a; trace_b; raw_diffs; masked_diffs = []; interfered = [] }
  else begin
    let mask = nondet_mask t receiver in
    let masked_a = Nondet.apply_mask mask trace_a in
    let masked_b = Nondet.apply_mask mask trace_b in
    let masked_diffs = Compare.diff_trees masked_a masked_b in
    let interfered = Compare.interfered_of_diffs masked_diffs in
    { trace_a; trace_b; raw_diffs; masked_diffs; interfered }
  end

(* Schedule search for one test case, given its sequential outcome and
   that outcome's masked-diff fingerprint [seq_fp]. Every
   non-sequential class representative executes once; divergences
   whose fingerprint equals [seq_fp] are the same root cause the
   sequential phase already reported and are dropped, so the findings
   are precisely the concurrent-only interference. A representative
   that panics or hangs is counted and skipped — a schedule-dependent
   crash is interesting but is not a functional interference report,
   and must not quarantine a test case that runs fine sequentially.

   Representatives mostly reproduce a handful of receiver results, and
   everything after execution is a pure function of those results and
   the case: [judge] decodes, diffs and masks each distinct result
   (structural equality, never a hash) once per case. The first diffs
   with a fingerprint, masked and raw, stay the finding's diffs, since a
   result's first occurrence is the first class that can produce its
   fingerprint. The trace itself is dropped once judged: the finding's
   first seed re-derives it. *)
let search t ~schedules ~sender ~receiver ~seq_fp (seq : outcome) =
  match schedule_classes t ~schedules ~sender ~receiver with
  | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) ->
    (* solo access capture died under an armed fault plane *)
    { empty_search with sr_schedules = schedules; sr_skipped = 1 }
  | classes ->
    let masked_b =
      lazy
        (let mask = nondet_mask t receiver in
         (mask, Nondet.apply_mask mask seq.trace_b))
    in
    (* Some (fingerprint, masked diffs, raw diffs) for a
       concurrent-only divergence, None otherwise *)
    let judged = Hashtbl.create 8 in
    let judge results =
      match Hashtbl.find_opt judged results with
      | Some verdict -> verdict
      | None ->
        let trace = Decode.decode_trace results in
        let verdict =
          match Compare.diff_trees trace seq.trace_b with
          | [] -> None
          | raw -> (
            let mask, masked_b = Lazy.force masked_b in
            let masked = Nondet.apply_mask mask trace in
            match Compare.diff_trees masked masked_b with
            | [] -> None
            | diffs ->
              let fp = Compare.fingerprint_diffs diffs in
              if fp = seq_fp then None else Some (fp, diffs, raw))
        in
        Hashtbl.replace judged results verdict;
        verdict
    in
    let executed = ref 0 and skipped = ref 0 in
    let findings = ref [] in      (* (fingerprint, concurrent), first-seen *)
    List.iter
      (fun cls ->
        if not cls.cls_sequential then begin
          incr executed;
          match
            interleave t
              ~schedule:(Sched.Seeded (List.hd cls.cls_seeds))
              ~base:t.env.Env.base0 sender receiver
          with
          | exception (Fault.Kernel_panic _ | Fault.Fuel_exhausted) ->
            incr skipped
          | results -> (
            match judge results with
            | None -> ()
            | Some (fp, diffs, raw) -> (
              match List.assoc_opt fp !findings with
              | Some c ->
                findings :=
                  (fp, { c with cc_seeds = c.cc_seeds @ cls.cls_seeds })
                  :: List.remove_assoc fp !findings
              | None ->
                findings :=
                  ( fp,
                    { cc_seeds = cls.cls_seeds; cc_fingerprint = fp;
                      cc_diffs = diffs; cc_raw_diffs = raw;
                      cc_interfered = Compare.interfered_of_diffs diffs } )
                  :: !findings))
        end)
      classes;
    let sr_findings =
      List.rev_map
        (fun (_, c) ->
          { c with cc_seeds = List.sort_uniq Int.compare c.cc_seeds })
        !findings
    in
    { sr_schedules = schedules;
      sr_classes = List.length classes;
      sr_executed = !executed;
      sr_pruned = schedules - !executed;
      sr_skipped = !skipped;
      sr_findings }

(* [search] behind the search memo. A hit hands the case the search an
   earlier case of the same pair ran: the same classes, counts and
   findings, at no execution. *)
let search_schedules t ~schedules ~sender ~receiver (seq : outcome) =
  if schedules <= 1 then empty_search
  else begin
    let seq_fp = Compare.fingerprint_diffs seq.masked_diffs in
    if not (memoizing t) then
      search t ~schedules ~sender ~receiver ~seq_fp seq
    else begin
      let key = (pkey sender, pkey receiver, schedules) in
      match Lru.find t.search_cache key with
      | Some (fp, found) when fp = seq_fp ->
        Metrics.inc t.c_shits;
        found
      | Some _ | None ->
        Metrics.inc t.c_smisses;
        let found = search t ~schedules ~sender ~receiver ~seq_fp seq in
        Lru.add t.search_cache key (seq_fp, found);
        found
    end
  end

(* Failure-aware execution: a crashed or hung kernel no longer takes the
   whole campaign down; the caller (normally Exec.Supervisor) decides
   whether to retry, reboot, or quarantine. *)
type status =
  | Completed of outcome
  | Crashed of Fault.panic_info
  | Hung

let try_execute t ~sender ~receiver =
  match execute t ~sender ~receiver with
  | outcome -> Completed outcome
  | exception Fault.Kernel_panic info -> Crashed info
  | exception Fault.Fuel_exhausted -> Hung

(* Re-test with a modified sender and report the interfered receiver
   indices — the TestFuncI primitive of Algorithm 2. *)
let test_interference t ~sender ~receiver =
  let outcome = execute t ~sender ~receiver in
  outcome.interfered

(* Bounds-based execution (the paper's section 7 extension for the time
   namespace): learn per-leaf value bounds from receiver-only runs at
   different clock bases, then flag the sender-preceded trace's values
   that fall outside them. Detects interference on resources that are
   non-deterministic by nature, which the masking pipeline must skip. *)
let bounds_of t receiver =
  let base = t.env.Env.base0 in
  let reference = baseline_trace t receiver in
  let alternatives =
    List.init t.reruns (fun k ->
        run_receiver t ~base:(base + ((k + 1) * t.rerun_delta)) receiver)
  in
  Kit_trace.Bounds.learn reference alternatives

let execute_bounds t ~sender ~receiver =
  let bounds = bounds_of t receiver in
  let trace_a = run_pair t ~base:t.env.Env.base0 sender receiver in
  Kit_trace.Bounds.check bounds trace_a
