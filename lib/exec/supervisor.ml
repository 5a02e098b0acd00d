(* The supervised execution runtime: fuel deadlines, VM restart, bounded
   retries with deterministic exponential backoff, and a quarantine list
   for repeat crashers. See supervisor.mli for the contract.

   Recovery model, mirroring the paper's server/client deployment:

   - a kernel panic or hang poisons only the current execution; the next
     attempt reloads the snapshot, so a plain retry suffices;
   - a corrupted snapshot restore or a boot failure poisons the VM
     itself; recovery is a full reboot (State.boot + fresh snapshot),
     which is deterministic, so a rebooted VM is indistinguishable from
     the original;
   - a test case still failing after [max_retries] retries is moved to
     the quarantine as a first-class crash report and never re-executed.

   Backoff is deterministic and virtual: the delay each retry *would*
   sleep is computed and accumulated in [stats.backoff_ms], keeping
   supervised runs bit-reproducible and fast. *)

module Program = Kit_abi.Program
module Config = Kit_kernel.Config
module Fault = Kit_kernel.Fault
module Clock = Kit_kernel.Clock
module State = Kit_kernel.State
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer

type config = {
  fuel : int;
  max_retries : int;
  max_reboots : int;
  backoff_base_ms : float;
}

let default_config =
  { fuel = 100_000; max_retries = 8; max_reboots = 8; backoff_base_ms = 5.0 }

type crash_reason =
  | Panicked of Fault.panic_info
  | Hung_forever
  | Worker_lost of string

type crash = {
  c_sender : Program.t;
  c_receiver : Program.t;
  c_reason : crash_reason;
  c_attempts : int;
}

type stats = {
  mutable attempts : int;
  mutable retries : int;
  mutable reboots : int;
  mutable boot_failures : int;
  mutable corruptions : int;
  mutable backoff_ms : float;
}

(* Interned registry handles for the [stats] mirror (see
   [intern_counters] below). *)
type counters = {
  mc_attempts : Metrics.counter;
  mc_retries : Metrics.counter;
  mc_reboots : Metrics.counter;
  mc_boot_failures : Metrics.counter;
  mc_corruptions : Metrics.counter;
  mc_quarantined : Metrics.counter;
  mg_backoff_ms : Metrics.gauge;
}

type t = {
  cfg : config;
  kconfig : Config.t;
  fault : Fault.t;
  reruns : int;
  baseline_cache : bool;
  obs : Obs.t;
  m : counters;
  mutable runner : Runner.t;
  mutable prior_executions : int;
  stats : stats;
  mutable quarantine : crash list;      (* newest first *)
  mutable quarantined : int;            (* its length *)
}

exception Gave_up of string

(* The stats record stays the structural source (tests and pp read it);
   each mutation is mirrored into the bundle's registry so exports see
   the same numbers without a separate collection pass. The handles are
   interned once per supervisor: interning takes a process-wide lock, so
   per-increment lookups would serialise every domain of a parallel
   campaign on one mutex. *)
let intern_counters obs =
  let c name = Metrics.counter obs.Obs.metrics ("sup." ^ name) in
  { mc_attempts = c "attempts";
    mc_retries = c "retries";
    mc_reboots = c "reboots";
    mc_boot_failures = c "boot_failures";
    mc_corruptions = c "corruptions";
    mc_quarantined = c "quarantined";
    mg_backoff_ms = Metrics.gauge obs.Obs.metrics "sup.backoff_ms" }

let backoff ~m stats cfg ~attempt =
  let delay = cfg.backoff_base_ms *. (2.0 ** float_of_int attempt) in
  stats.backoff_ms <- stats.backoff_ms +. delay;
  Metrics.add_gauge m.mg_backoff_ms delay

(* Boot an environment, retrying transient boot failures with backoff. *)
let boot_env ~cfg ~fault ~m ~stats kconfig =
  let rec go attempt =
    match Env.create ~fault kconfig with
    | env -> env
    | exception Fault.Boot_failed ->
      stats.boot_failures <- stats.boot_failures + 1;
      Metrics.inc m.mc_boot_failures;
      if attempt >= cfg.max_reboots then
        raise (Gave_up "VM boot kept failing; fault plane arms a permanent boot failure")
      else begin
        backoff ~m stats cfg ~attempt;
        go (attempt + 1)
      end
  in
  go 0

let fresh_stats () =
  { attempts = 0; retries = 0; reboots = 0; boot_failures = 0;
    corruptions = 0; backoff_ms = 0.0 }

let create ?(cfg = default_config) ?(reruns = 3) ?(baseline_cache = true)
    ?fault ?(obs = Obs.nop) kconfig =
  let fault = match fault with Some f -> f | None -> Fault.none () in
  Fault.set_fuel_limit fault (if cfg.fuel > 0 then Some cfg.fuel else None);
  let stats = fresh_stats () in
  let m = intern_counters obs in
  let env = boot_env ~cfg ~fault ~m ~stats kconfig in
  { cfg; kconfig; fault; reruns; baseline_cache; obs; m;
    runner = Runner.create ~reruns ~baseline_cache ~obs env;
    prior_executions = 0; stats; quarantine = []; quarantined = 0 }

let executions t = t.prior_executions + Runner.executions t.runner

let quarantine_count t = t.quarantined

(* [quarantine] is newest-first: the delta past the first [n] reports is
   its prefix, re-reversed to oldest-first as it accumulates. *)
let quarantined_since t n =
  let rec take k l acc =
    if k <= 0 then acc
    else match l with [] -> acc | x :: tl -> take (k - 1) tl (x :: acc)
  in
  take (t.quarantined - n) t.quarantine []

let quarantine t crash =
  t.quarantine <- crash :: t.quarantine;
  t.quarantined <- t.quarantined + 1

(* Deterministic timestamp for trace events: the current runner's
   virtual kernel clock. *)
let vnow t = Clock.now t.runner.Runner.env.Env.kernel.State.clock

(* Full VM reboot after an infrastructure fault: retire the poisoned
   runner and boot a fresh environment. Booting is deterministic, so the
   replacement is indistinguishable from the original machine. *)
let reboot t =
  t.prior_executions <- t.prior_executions + Runner.executions t.runner;
  t.stats.reboots <- t.stats.reboots + 1;
  Metrics.inc t.m.mc_reboots;
  Tracer.instant t.obs.Obs.tracer ~time:(vnow t) "sup.reboot";
  let env = boot_env ~cfg:t.cfg ~fault:t.fault ~m:t.m ~stats:t.stats t.kconfig in
  t.runner <-
    Runner.create ~reruns:t.reruns ~baseline_cache:t.baseline_cache ~obs:t.obs
      env

(* One supervised attempt loop shared by execute and test_interference:
   [retries] counts kernel deaths (panic/hang), [reboots] counts
   infrastructure faults; each budget is bounded separately. *)
let rec attempt t ~sender ~receiver ~retries ~reboots =
  t.stats.attempts <- t.stats.attempts + 1;
  Metrics.inc t.m.mc_attempts;
  match Runner.try_execute t.runner ~sender ~receiver with
  | Runner.Completed _ as s -> (s, retries)
  | (Runner.Crashed _ | Runner.Hung) as s ->
    if retries >= t.cfg.max_retries then (s, retries)
    else begin
      t.stats.retries <- t.stats.retries + 1;
      Metrics.inc t.m.mc_retries;
      Tracer.instant t.obs.Obs.tracer ~time:(vnow t) "sup.retry"
        ~attrs:[ ("attempt", string_of_int (retries + 1)) ];
      backoff ~m:t.m t.stats t.cfg ~attempt:retries;
      attempt t ~sender ~receiver ~retries:(retries + 1) ~reboots
    end
  | exception Fault.Snapshot_corrupt ->
    t.stats.corruptions <- t.stats.corruptions + 1;
    Metrics.inc t.m.mc_corruptions;
    if reboots >= t.cfg.max_reboots then
      raise (Gave_up "snapshot restore kept failing; fault plane arms permanent corruption")
    else begin
      backoff ~m:t.m t.stats t.cfg ~attempt:reboots;
      reboot t;
      attempt t ~sender ~receiver ~retries ~reboots:(reboots + 1)
    end

(* Per-execution span around the whole attempt loop (retries included),
   timestamped with the virtual clock so traces stay deterministic. The
   Begin and End read the clock separately — the span's deterministic
   duration is the virtual time the attempts actually consumed. [attrs]
   carries the caller's correlation attributes (case/cluster/domain), so
   a reconstructed trace can join each execution back to its test case. *)
let supervised t name ~attrs ~sender ~receiver =
  let tracer = t.obs.Obs.tracer in
  let sp = Tracer.span tracer ~attrs ~time:(vnow t) name in
  match attempt t ~sender ~receiver ~retries:0 ~reboots:0 with
  | result -> Tracer.finish tracer ~time:(vnow t) sp; result
  | exception e -> Tracer.finish tracer ~time:(vnow t) sp; raise e

let execute ?(attrs = []) t ~sender ~receiver =
  let status, retries = supervised t "sup.execute" ~attrs ~sender ~receiver in
  (match status with
  | Runner.Completed _ -> ()
  | Runner.Crashed info ->
    Metrics.inc t.m.mc_quarantined;
    Tracer.instant t.obs.Obs.tracer ~time:(vnow t) "sup.quarantine"
      ~attrs:(("reason", "panic") :: attrs);
    quarantine t
      { c_sender = sender; c_receiver = receiver;
        c_reason = Panicked info; c_attempts = retries + 1 }
  | Runner.Hung ->
    Metrics.inc t.m.mc_quarantined;
    Tracer.instant t.obs.Obs.tracer ~time:(vnow t) "sup.quarantine"
      ~attrs:(("reason", "hang") :: attrs);
    quarantine t
      { c_sender = sender; c_receiver = receiver;
        c_reason = Hung_forever; c_attempts = retries + 1 });
  status

(* Supervised schedule search. The runner's search already absorbs
   per-schedule task crashes (they are counted, not quarantined), so the
   only failures reaching this level are infrastructure faults: handle a
   corrupted snapshot with one reboot and retry, and give the case up as
   skipped if the replacement VM is corrupted too — schedule search is
   opportunistic extra coverage and must not take the campaign down. *)
let search_schedules ?(attrs = []) t ~schedules ~sender ~receiver outcome =
  if schedules <= 1 then Runner.empty_search
  else begin
    let tracer = t.obs.Obs.tracer in
    let sp = Tracer.span tracer ~attrs ~time:(vnow t) "sup.sched_search" in
    let corrupted () =
      t.stats.corruptions <- t.stats.corruptions + 1;
      Metrics.inc t.m.mc_corruptions
    in
    let run () =
      Runner.search_schedules t.runner ~schedules ~sender ~receiver outcome
    in
    let result =
      match run () with
      | r -> r
      | exception Fault.Snapshot_corrupt -> (
        corrupted ();
        reboot t;
        match run () with
        | r -> r
        | exception Fault.Snapshot_corrupt ->
          corrupted ();
          { Runner.empty_search with
            Runner.sr_schedules = schedules; sr_skipped = 1 })
    in
    Tracer.finish tracer ~time:(vnow t) sp;
    result
  end

let test_interference t ~sender ~receiver =
  let status, _ = supervised t "sup.retest" ~attrs:[] ~sender ~receiver in
  match status with
  | Runner.Completed outcome -> outcome.Runner.interfered
  | Runner.Crashed _ | Runner.Hung -> []

let pp_crash_reason ppf = function
  | Panicked info -> Fault.pp_panic_info ppf info
  | Hung_forever -> Fmt.string ppf "hung (fuel deadline exceeded every attempt)"
  | Worker_lost how -> Fmt.pf ppf "worker process lost (%s)" how

let pp_crash ppf c =
  Fmt.pf ppf "@[<v>QUARANTINED after %d attempts: %a@,sender   %s@,receiver %s@]"
    c.c_attempts pp_crash_reason c.c_reason
    (Program.to_string c.c_sender)
    (Program.to_string c.c_receiver)

(* The registry mirror is left alone: a domain's bundle reaches the
   campaign's through [Metrics.absorb]. *)
let absorb t (s : stats) counters =
  t.stats.attempts <- t.stats.attempts + s.attempts;
  t.stats.retries <- t.stats.retries + s.retries;
  t.stats.reboots <- t.stats.reboots + s.reboots;
  t.stats.boot_failures <- t.stats.boot_failures + s.boot_failures;
  t.stats.corruptions <- t.stats.corruptions + s.corruptions;
  t.stats.backoff_ms <- t.stats.backoff_ms +. s.backoff_ms;
  Fault.absorb t.fault counters

let pp_stats ppf s =
  Fmt.pf ppf
    "%d attempts, %d retries, %d reboots (%d boot failures, %d corruptions), %.1f ms backoff"
    s.attempts s.retries s.reboots s.boot_failures s.corruptions s.backoff_ms
