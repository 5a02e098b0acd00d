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
module Codec = Kit_core.Codec
module Caselog = Kit_core.Caselog
module Cluster = Kit_gen.Cluster
module Testcase = Kit_gen.Testcase
module Coverage = Kit_obs.Coverage
module Jsonl = Kit_obs.Jsonl

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
  mutable t_q : (Testcase.t, Campaign.case_result * int) Jobqueue.t;
      (* results with their execution counts *)
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
  t_log : Caselog.writer;               (* this incarnation's checkpoint *)
  mutable t_torn : int;                 (* torn-tail bytes dropped at load *)
  (* scheduling state, owned by Sched *)
  mutable t_deficit : float;
  mutable t_dispatched : int;
  mutable t_contended : int;
  mutable t_steals : int;
  (* outcome *)
  mutable t_result : Campaign.t option;
  mutable t_summary : string option;
}

(* Ahead of [create], whose checkpoint writer needs it. *)
let ckpt_kind = "serve-tenant-v4"

let create ~id spec =
  { t_id = id; t_spec = spec; t_phase = Pending; t_prepared = None;
    t_generation = None; t_q = Jobqueue.create ();
    t_quar = Hashtbl.create 7; t_strikes = Hashtbl.create 7;
    t_cache = Hashtbl.create 64; t_fps = Hashtbl.create 64;
    t_executions = 0; t_resumed = 0;
    t_inflight = 0; t_since_ckpt = 0; t_log = Caselog.writer ~kind:ckpt_kind;
    t_torn = 0; t_deficit = 0.0; t_dispatched = 0;
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
let torn t = t.t_torn

let cached t =
  List.sort String.compare
    (Hashtbl.fold (fun fp _ acc -> fp :: acc) t.t_cache [])

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
      let fp = Caselog.fingerprint tc in
      Hashtbl.replace t.t_fps id fp;
      match Hashtbl.find_opt t.t_cache fp with
      | Some ((_, execs) as cached) ->
        Jobqueue.complete q id cached;
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
      | None -> Caselog.fingerprint (Jobqueue.payload t.t_q id)
    in
    Jobqueue.complete t.t_q id (result, execs);
    Hashtbl.replace t.t_cache fp (result, execs);
    Caselog.add t.t_log (fp, (result, execs));
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
   crash reports, which cost no executions) in representative order
   through Campaign.assemble: diagnosis and aggregation run here, in the
   daemon, exactly as a solo campaign would run them. *)
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
            | Some r -> (r, 0)
            | None ->
              invalid_arg
                (Printf.sprintf "Tenant.finish: representative %d of %s \
                                 has no result" i (name t))))
        generation.Cluster.reps
    in
    let c = Campaign.assemble prepared generation results in
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

(* -- checkpoints ----------------------------------------------------------

   A case-result log (see Caselog) whose header is the spec, the
   finished flag and the summary once finished. The first save of an
   incarnation writes the whole cache as a one-record log; every later
   save appends one record with only the entries completed since. On
   load, entries accumulate across records and the last record's spec,
   flag and summary win. *)

let ckpt_path dir t = Filename.concat dir ("tenant-" ^ name t ^ ".ckpt")

let checkpoint_due t ~every = t.t_since_ckpt >= max 1 every

let header t =
  [ ("spec", Proto.spec_to_json t.t_spec);
    ("finished", Jsonl.Bool (t.t_phase = Finished)) ]
  @ match t.t_summary with Some s -> [ ("summary", Jsonl.Str s) ] | None -> []

let save_checkpoint dir t =
  Caselog.save t.t_log (ckpt_path dir t) ~header:(header t) ~all:(fun () ->
      Hashtbl.fold (fun fp e acc -> (fp, e) :: acc) t.t_cache []);
  t.t_since_ckpt <- 0

let header_of_json j =
  let open Codec in
  let* spec = field "spec" Proto.spec_of_json j in
  let* finished = field_or "finished" ~default:false bool j in
  let* summary =
    field_or "summary" ~default:None
      (fun s -> Result.map Option.some (string s))
      j
  in
  Ok (spec, finished, summary)

(* Rebuild a tenant from its checkpoint file: a finished tenant comes
   back Finished with its stored summary; an unfinished one comes back
   Pending with the cache primed, ready to re-activate. *)
let of_checkpoint ~id path =
  match Caselog.read path ~kind:ckpt_kind header_of_json with
  | Error e -> Error (Checkpoint.error_to_string e)
  | Ok ([], _) ->
    Error
      (Checkpoint.error_to_string
         (Checkpoint.Checkpoint_corrupt (path ^ ": no complete record")))
  | Ok (rs, torn) ->
    let (spec, finished, summary), _ = List.nth rs (List.length rs - 1) in
    let t = create ~id spec in
    List.iter
      (fun (_, entries) ->
        List.iter (fun (fp, e) -> Hashtbl.replace t.t_cache fp e) entries)
      rs;
    if finished then begin
      t.t_phase <- Finished;
      t.t_summary <- summary
    end;
    t.t_torn <- torn;
    Ok t
