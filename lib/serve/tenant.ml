(* One tenant of the kit-serve scheduler. See tenant.mli.

   The tenant owns everything campaign-shaped about a submission — the
   prepared corpus, the generated clusters, the per-representative job
   queue, the result cache keyed by testcase fingerprint — while the
   scheduler owns everything pool-shaped (slots, deficits, dispatch).
   The fingerprint cache is what makes both resume and Extend cheap:
   corpus generation is prefix-stable, so an unchanged cluster's
   representative hashes to the same key and its cached result is
   replayed instead of re-executed. *)

module Campaign = Kit_core.Campaign
module Jobqueue = Kit_core.Jobqueue
module Checkpoint = Kit_core.Checkpoint
module Cluster = Kit_gen.Cluster
module Testcase = Kit_gen.Testcase
module Program = Kit_abi.Program
module Fnv = Kit_compact.Fnv
module Ast = Kit_trace.Ast
module Compare = Kit_trace.Compare
module Report = Kit_detect.Report
module Filter = Kit_detect.Filter
module Supervisor = Kit_exec.Supervisor
module Coverage = Kit_obs.Coverage

type phase =
  | Pending
  | Active
  | Finished
  | Cancelled
  | Failed of string

let phase_string = function
  | Pending -> "pending"
  | Active -> "active"
  | Finished -> "finished"
  | Cancelled -> "cancelled"
  | Failed why -> "failed: " ^ why

type t = {
  t_id : int;
  mutable t_spec : Proto.spec;
  mutable t_phase : phase;
  mutable t_prepared : Campaign.prepared option;  (* while Active *)
  mutable t_generation : Cluster.result option;
  mutable t_q : (Testcase.t, Campaign.case_result) Jobqueue.t;
  t_quar : (int, Campaign.case_result) Hashtbl.t;
      (* twice-lethal representatives, by job id *)
  t_strikes : (int, int) Hashtbl.t;     (* worker deaths per in-flight id *)
  t_cache : (string, Campaign.case_result * int) Hashtbl.t;
      (* testcase fingerprint -> (result, executions) *)
  t_fps : (int, string) Hashtbl.t;
      (* job id -> fingerprint, computed once at activation *)
  mutable t_executions : int;
  mutable t_resumed : int;              (* cache replays this activation *)
  mutable t_inflight : int;
  mutable t_since_ckpt : int;
  (* scheduling state, owned by Sched *)
  mutable t_deficit : float;
  mutable t_dispatched : int;
  mutable t_contended : int;
  mutable t_steals : int;
  (* outcome *)
  mutable t_result : Campaign.t option;
  mutable t_summary : string option;
}

(* The pre-FNV fingerprint: an MD5 of the marshalled testcase. Kept
   behind the KIT_LEGACY_FINGERPRINT compat flag so an operator can pin
   the old keying scheme while old and new daemons share a state dir;
   legacy checkpoints themselves are migrated by re-fingerprinting (the
   cached results carry their testcases), not by keeping this around. *)
let fingerprint_legacy tc =
  Digest.string (Marshal.to_string tc [ Marshal.No_sharing ])

(* Streaming FNV over the testcase fields: no Marshal buffer, no MD5,
   and process-stable (ints only — no pointers, no hash randomisation).
   Stacks are length-prefixed so adjacent lists cannot alias. *)
let fingerprint_fnv (tc : Testcase.t) =
  let ints h l = List.fold_left Fnv.int (Fnv.int h (List.length l)) l in
  let h = Fnv.int Fnv.init tc.Testcase.sender in
  let h = Fnv.int h tc.Testcase.receiver in
  let h =
    match tc.Testcase.flow with
    | None -> Fnv.int h 0
    | Some f ->
      let h = Fnv.int h 1 in
      let h = Fnv.int h f.Testcase.addr in
      let h = Fnv.int h f.Testcase.w_ip in
      let h = Fnv.int h f.Testcase.r_ip in
      let h = Fnv.int h f.Testcase.r_sys_index in
      let h = ints h f.Testcase.w_stack in
      ints h f.Testcase.r_stack
  in
  Fnv.to_hex h

let legacy_fingerprints =
  match Sys.getenv_opt "KIT_LEGACY_FINGERPRINT" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let fingerprint tc =
  if legacy_fingerprints then fingerprint_legacy tc else fingerprint_fnv tc

let create ~id spec =
  { t_id = id; t_spec = spec; t_phase = Pending; t_prepared = None;
    t_generation = None; t_q = Jobqueue.create ();
    t_quar = Hashtbl.create 7; t_strikes = Hashtbl.create 7;
    t_cache = Hashtbl.create 64; t_fps = Hashtbl.create 64;
    t_executions = 0; t_resumed = 0;
    t_inflight = 0; t_since_ckpt = 0; t_deficit = 0.0; t_dispatched = 0;
    t_contended = 0; t_steals = 0; t_result = None; t_summary = None }

let id t = t.t_id
let name t = t.t_spec.Proto.sp_name
let spec t = t.t_spec
let phase t = t.t_phase
let weight t = max 1 t.t_spec.Proto.sp_weight
let summary t = t.t_summary
let result t = t.t_result
let inflight t = t.t_inflight
let resumed t = t.t_resumed

let total t =
  match t.t_generation with
  | None -> 0
  | Some g -> List.length g.Cluster.reps

let completed t =
  Jobqueue.completed_count t.t_q + Hashtbl.length t.t_quar

(* -- activation ----------------------------------------------------------- *)

(* Prepare + generate the tenant's campaign, fill the job queue (one job
   per cluster representative, id = representative index) and replay
   every fingerprint-cached result as an immediately-completed job.
   Returns the context the scheduler registers with the pool. *)
let activate t ~procs =
  let options = Proto.options_of_spec t.t_spec in
  let prepared = Campaign.prepare options in
  let generation = Campaign.generate_prepared prepared in
  let q = Jobqueue.create () in
  t.t_prepared <- Some prepared;
  t.t_generation <- Some generation;
  t.t_q <- q;
  Hashtbl.reset t.t_quar;
  Hashtbl.reset t.t_strikes;
  Hashtbl.reset t.t_fps;
  t.t_executions <- 0;
  t.t_resumed <- 0;
  t.t_inflight <- 0;
  List.iteri
    (fun i tc ->
      let id = Jobqueue.submit q tc in
      assert (id = i);
      (* one fingerprint per representative per activation: the cache
         lookup here and the store in [record_done] share it *)
      let fp = fingerprint tc in
      Hashtbl.replace t.t_fps id fp;
      match Hashtbl.find_opt t.t_cache fp with
      | Some (result, execs) ->
        Jobqueue.complete q id result;
        t.t_executions <- t.t_executions + execs;
        t.t_resumed <- t.t_resumed + 1
      | None -> ())
    generation.Cluster.reps;
  ignore (Jobqueue.assign_round_robin q ~workers:(max 1 procs));
  t.t_phase <- Active;
  (options, Campaign.prepared_corpus prepared)

let corpus t =
  match t.t_prepared with
  | Some p -> Campaign.prepared_corpus p
  | None -> [||]

(* -- scheduling hooks ----------------------------------------------------- *)

(* Work a slot could start right now: unfinished jobs beyond the ones
   already running ([unfinished_count] counts queued, assigned and
   running). *)
let claimable t =
  t.t_phase = Active && Jobqueue.unfinished_count t.t_q > t.t_inflight

let claim t ~slot =
  match Jobqueue.claim_next t.t_q ~worker:slot with
  | Some _ as job -> t.t_inflight <- t.t_inflight + 1; job
  | None -> (
    match Jobqueue.steal t.t_q ~thief:slot with
    | Some _ as job -> t.t_inflight <- t.t_inflight + 1; job
    | None -> None)

let under_inflight_cap t =
  t.t_spec.Proto.sp_max_inflight <= 0
  || t.t_inflight < t.t_spec.Proto.sp_max_inflight

let record_done t ~id result execs =
  if Jobqueue.mem t.t_q id && Jobqueue.result t.t_q id = None then begin
    let fp =
      match Hashtbl.find_opt t.t_fps id with
      | Some fp -> fp
      | None -> fingerprint (Jobqueue.payload t.t_q id)
    in
    Jobqueue.complete t.t_q id result;
    Hashtbl.replace t.t_cache fp (result, execs);
    t.t_executions <- t.t_executions + execs;
    t.t_inflight <- max 0 (t.t_inflight - 1);
    t.t_since_ckpt <- t.t_since_ckpt + 1;
    Hashtbl.remove t.t_strikes id
  end

(* A worker died holding job [id]. Two deaths in a row quarantine the
   representative as a first-class Worker_lost crash report. Returns
   [true] when the job was quarantined (it must not be re-dealt). *)
let struck t ~id ~why =
  t.t_inflight <- max 0 (t.t_inflight - 1);
  let strikes = 1 + Option.value ~default:0 (Hashtbl.find_opt t.t_strikes id) in
  Hashtbl.replace t.t_strikes id strikes;
  if strikes >= 2 && Jobqueue.mem t.t_q id && Jobqueue.result t.t_q id = None
  then begin
    let tc = Jobqueue.payload t.t_q id in
    Jobqueue.quarantine t.t_q id;
    Hashtbl.replace t.t_quar id
      (Campaign.lost_case_result ~attempts:strikes (corpus t) ~why tc);
    t.t_since_ckpt <- t.t_since_ckpt + 1;
    true
  end
  else false

let release t ~slot = Jobqueue.release t.t_q ~worker:slot

let deficit t = t.t_deficit
let set_deficit t d = t.t_deficit <- d

let note_dispatch t ~contended ~stolen =
  t.t_dispatched <- t.t_dispatched + 1;
  if contended then t.t_contended <- t.t_contended + 1;
  if stolen then t.t_steals <- t.t_steals + 1

let redeal t jobs ~to_ = Jobqueue.deal t.t_q jobs ~to_

let is_drained t = t.t_phase = Active && Jobqueue.is_drained t.t_q

let steals t = t.t_steals

(* -- finishing ------------------------------------------------------------ *)

(* Fold the per-representative results (queue results, plus quarantined
   crash reports) in representative order through Campaign.assemble:
   diagnosis and aggregation run here, in the daemon, exactly as a solo
   campaign would run them. *)
let finish t =
  match (t.t_prepared, t.t_generation) with
  | Some prepared, Some generation ->
    let results =
      List.mapi
        (fun i _ ->
          match Jobqueue.result t.t_q i with
          | Some r -> r
          | None -> (
            match Hashtbl.find_opt t.t_quar i with
            | Some r -> r
            | None ->
              invalid_arg
                (Printf.sprintf "Tenant.finish: representative %d of %s \
                                 has no result" i (name t))))
        generation.Cluster.reps
    in
    let c =
      Campaign.assemble prepared generation results ~executions:t.t_executions
    in
    t.t_result <- Some c;
    t.t_summary <- Some (Proto.summary c);
    t.t_phase <- Finished;
    (* the corpus and profiles are only needed while executing *)
    t.t_prepared <- None;
    c
  | _ -> invalid_arg "Tenant.finish: tenant was never activated"

let cancel t =
  if t.t_phase = Pending || t.t_phase = Active then t.t_phase <- Cancelled

let fail t why = t.t_phase <- Failed why

(* -- extend --------------------------------------------------------------- *)

(* Grow the corpus and go around again. The fingerprint cache carries
   over: prefix-stable corpus generation means every cluster whose
   representative is unchanged replays from cache on re-activation. *)
let extend t ~add =
  t.t_spec <-
    { t.t_spec with
      Proto.sp_corpus_size = t.t_spec.Proto.sp_corpus_size + add };
  t.t_phase <- Pending;
  t.t_result <- None;
  t.t_summary <- None

(* -- status --------------------------------------------------------------- *)

(* Coverage summaries ride the assembled result, like [ts_reports]:
   [-1] until the tenant finishes. *)
let cov_summary field t =
  match t.t_result with
  | Some c -> field (Coverage.summary c.Campaign.coverage)
  | None -> -1

let status t =
  { Proto.ts_name = name t;
    ts_id = t.t_id;
    ts_state = phase_string t.t_phase;
    ts_weight = weight t;
    ts_done = completed t;
    ts_total = total t;
    ts_executions = t.t_executions;
    ts_reports =
      (match t.t_result with
      | Some c -> List.length c.Campaign.reports
      | None -> -1);
    ts_resumed = t.t_resumed;
    ts_dispatched = t.t_dispatched;
    ts_contended = t.t_contended;
    ts_steals = t.t_steals;
    ts_cov_vars = cov_summary (fun s -> s.Coverage.sum_vars) t;
    ts_cov_paired = cov_summary (fun s -> s.Coverage.sum_paired) t;
    ts_cov_attributed = cov_summary (fun s -> s.Coverage.sum_attributed) t;
    ts_cov_gaps = cov_summary (fun s -> s.Coverage.sum_gaps) t }

(* -- checkpoints ---------------------------------------------------------- *)

(* The kind was bumped to -v2 when trace nodes switched to the packed
   representation, and to -v3 when reports gained an origin, case
   results gained the schedule-search fields and specs gained
   [sp_schedules]: the Marshal layout of the cached case results changed
   each time, and the kind tag is what keeps the loader from decoding
   old bytes into the new types. Old-kind files are still loadable — see
   [Legacy] (v1) and [V2] below. *)
let ckpt_kind = "serve-tenant-v3"
let ckpt_kind_v2 = "serve-tenant-v2"
let ckpt_kind_legacy = "serve-tenant"

(* The spec layout every pre-v3 checkpoint embeds (before
   [sp_schedules]); migrated as sequential-only. *)
type legacy_spec = {
  lsp_name : string;
  lsp_seed : int;
  lsp_corpus_size : int;
  lsp_strategy : Cluster.strategy;
  lsp_weight : int;
  lsp_max_inflight : int;
  lsp_diagnose : bool;
}

let spec_of_legacy (s : legacy_spec) =
  { Proto.sp_name = s.lsp_name; sp_seed = s.lsp_seed;
    sp_corpus_size = s.lsp_corpus_size; sp_strategy = s.lsp_strategy;
    sp_weight = s.lsp_weight; sp_max_inflight = s.lsp_max_inflight;
    sp_diagnose = s.lsp_diagnose; sp_schedules = 1 }

type ckpt = {
  ck_spec : Proto.spec;
  ck_completed : (string * (Campaign.case_result * int)) list;
  ck_finished : bool;
  ck_summary : string option;
}

(* Mirrors of the exact record layouts a pre-packing daemon marshalled
   under the "serve-tenant" kind — trace nodes as the old four-field
   record, reports and case results around them. Loading decodes into
   these, rebuilds packed nodes, and re-keys the cache with the current
   fingerprint scheme (the cached results carry their testcases, so no
   legacy digest is ever needed). *)
module Legacy = struct
  type diff = {
    ld_path : string list;
    ld_left : Ast.Legacy.ast;
    ld_right : Ast.Legacy.ast;
  }

  type report = {
    lr_testcase : Testcase.t;
    lr_sender : Program.t;
    lr_receiver : Program.t;
    lr_interfered : int list;
    lr_diffs : diff list;
    lr_trace_a : Ast.Legacy.ast;
    lr_trace_b : Ast.Legacy.ast;
  }

  type case_result = {
    lc_tc : Testcase.t;
    lc_funnel : Filter.funnel;
    lc_report : report option;
    lc_crashes : Supervisor.crash list;
  }

  type ckpt = {
    lk_spec : legacy_spec;
    lk_completed : (string * (case_result * int)) list;
    lk_finished : bool;
    lk_summary : string option;
  }

  let diff_of (d : diff) =
    { Compare.path = d.ld_path; left = Ast.of_legacy d.ld_left;
      right = Ast.of_legacy d.ld_right }

  let report_of (r : report) =
    { Report.testcase = r.lr_testcase; sender = r.lr_sender;
      receiver = r.lr_receiver; interfered = r.lr_interfered;
      diffs = List.map diff_of r.lr_diffs;
      trace_a = Ast.of_legacy r.lr_trace_a;
      trace_b = Ast.of_legacy r.lr_trace_b;
      origin = Report.Sequential }

  let case_result_of (c : case_result) =
    { Campaign.cr_tc = c.lc_tc; cr_funnel = c.lc_funnel;
      cr_report = Option.map report_of c.lc_report;
      cr_concurrent = []; cr_sched = Campaign.sched_create ();
      cr_crashes = c.lc_crashes }
end

(* Mirrors of the v2 layouts: trace nodes already packed, but reports
   have no origin and case results no schedule-search fields. A v2
   daemon only ever ran sequentially, so migration fills
   [Report.Sequential] origins and empty search results; the cache keys
   are already the current FNV fingerprints, so they carry over. *)
module V2 = struct
  type report = {
    v2r_testcase : Testcase.t;
    v2r_sender : Program.t;
    v2r_receiver : Program.t;
    v2r_interfered : int list;
    v2r_diffs : Compare.diff list;
    v2r_trace_a : Ast.t;
    v2r_trace_b : Ast.t;
  }

  type case_result = {
    v2c_tc : Testcase.t;
    v2c_funnel : Filter.funnel;
    v2c_report : report option;
    v2c_crashes : Supervisor.crash list;
  }

  type ckpt = {
    v2k_spec : legacy_spec;
    v2k_completed : (string * (case_result * int)) list;
    v2k_finished : bool;
    v2k_summary : string option;
  }

  let report_of (r : report) =
    { Report.testcase = r.v2r_testcase; sender = r.v2r_sender;
      receiver = r.v2r_receiver; interfered = r.v2r_interfered;
      diffs = r.v2r_diffs; trace_a = r.v2r_trace_a; trace_b = r.v2r_trace_b;
      origin = Report.Sequential }

  let case_result_of (c : case_result) =
    { Campaign.cr_tc = c.v2c_tc; cr_funnel = c.v2c_funnel;
      cr_report = Option.map report_of c.v2c_report;
      cr_concurrent = []; cr_sched = Campaign.sched_create ();
      cr_crashes = c.v2c_crashes }
end

let ckpt_path dir t = Filename.concat dir ("tenant-" ^ name t ^ ".ckpt")

let checkpoint_due t ~every = t.t_since_ckpt >= max 1 every

(* Checkpoint = the whole fingerprint cache (plus the summary once
   finished). A resumed daemon replays the cache at activation, so
   checkpointed representatives are never re-executed. *)
let save_checkpoint dir t =
  let ck =
    { ck_spec = t.t_spec;
      ck_completed =
        Hashtbl.fold (fun fp entry acc -> (fp, entry) :: acc) t.t_cache [];
      ck_finished = (t.t_phase = Finished);
      ck_summary = t.t_summary }
  in
  Checkpoint.save (ckpt_path dir t) ~kind:ckpt_kind ck;
  t.t_since_ckpt <- 0

(* A pre-packing checkpoint, migrated: packed trace nodes rebuilt from
   the legacy layout, cache re-keyed by the current fingerprint of each
   entry's own testcase (stored keys are stale MD5 digests). *)
let migrate_legacy ~id (ck : Legacy.ckpt) =
  let t = create ~id (spec_of_legacy ck.Legacy.lk_spec) in
  List.iter
    (fun (_old_fp, (lc, execs)) ->
      let cr = Legacy.case_result_of lc in
      Hashtbl.replace t.t_cache (fingerprint cr.Campaign.cr_tc) (cr, execs))
    ck.Legacy.lk_completed;
  if ck.Legacy.lk_finished then begin
    t.t_phase <- Finished;
    t.t_summary <- ck.Legacy.lk_summary
  end;
  t

(* A v2 checkpoint, migrated: origins and schedule-search fields filled
   with their sequential-only defaults, cache keys reused as stored. *)
let migrate_v2 ~id (ck : V2.ckpt) =
  let t = create ~id (spec_of_legacy ck.V2.v2k_spec) in
  List.iter
    (fun (fp, (vc, execs)) ->
      Hashtbl.replace t.t_cache fp (V2.case_result_of vc, execs))
    ck.V2.v2k_completed;
  if ck.V2.v2k_finished then begin
    t.t_phase <- Finished;
    t.t_summary <- ck.V2.v2k_summary
  end;
  t

(* Rebuild a tenant from its checkpoint file: a finished tenant comes
   back Finished with its stored summary; an unfinished one comes back
   Pending with the cache primed, ready to re-activate. Old-kind files
   go through the legacy decode + migration path. *)
let of_checkpoint ~id path =
  match (Checkpoint.load path ~kind:ckpt_kind : (ckpt, _) result) with
  | Ok ck ->
    let t = create ~id ck.ck_spec in
    List.iter (fun (fp, entry) -> Hashtbl.replace t.t_cache fp entry)
      ck.ck_completed;
    if ck.ck_finished then begin
      t.t_phase <- Finished;
      t.t_summary <- ck.ck_summary
    end;
    Ok t
  | Error (Checkpoint.Checkpoint_corrupt _ as e) -> (
    (* possibly an older-kind file: the kind tag tells *)
    match (Checkpoint.load path ~kind:ckpt_kind_v2 : (V2.ckpt, _) result) with
    | Ok ck -> Ok (migrate_v2 ~id ck)
    | Error _ -> (
      match
        (Checkpoint.load path ~kind:ckpt_kind_legacy : (Legacy.ckpt, _) result)
      with
      | Ok ck -> Ok (migrate_legacy ~id ck)
      | Error _ -> Error (Checkpoint.error_to_string e)))
  | Error e -> Error (Checkpoint.error_to_string e)
