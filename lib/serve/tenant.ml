(* One tenant of the kit-serve scheduler. See tenant.mli.

   A tenant is a spec, a phase, the scheduler's deficit-round-robin
   counters, a campaign run on Campaign's one execute driver while it is
   active, and a case-result log that outlives activations. The log is
   what makes both resume and Extend cheap: corpus generation is
   prefix-stable, so an unchanged cluster's representative has the same
   fingerprint and the driver replays its logged result instead of
   executing it again. *)

module Campaign = Kit_core.Campaign
module Checkpoint = Kit_core.Checkpoint
module Codec = Kit_core.Codec
module Caselog = Kit_core.Caselog
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

(* What [status] shows of a run, and what each save records in the
   log header, so a restored tenant — which has no run — shows the
   numbers it had. [p_reports] is -1 until the tenant finishes. *)
type progress = {
  p_done : int;
  p_total : int;
  p_executions : int;
  p_reports : int;
}

let no_progress = { p_done = 0; p_total = 0; p_executions = 0; p_reports = -1 }

type t = {
  t_id : int;
  mutable t_spec : Proto.spec;
  mutable t_phase : phase;
  t_path : string option;               (* the log's file, with a state dir *)
  t_log : Campaign.log;                 (* outlives activations *)
  t_torn : int;                         (* torn-tail bytes dropped at load *)
  mutable t_saved : progress;           (* the log's, at load *)
  mutable t_run : Campaign.run option;  (* the last activation's *)
  mutable t_jobs : Pool.jobs option;    (* while Active *)
  (* scheduling state, owned by Sched *)
  mutable t_deficit : float;
  mutable t_dispatched : int;
  mutable t_contended : int;
  mutable t_steals : int;
  (* outcome *)
  mutable t_result : Campaign.t option;
  mutable t_summary : string option;
}

let ckpt_kind = "serve-tenant-v4"

let name t = t.t_spec.Proto.sp_name

let progress t =
  match t.t_run with
  | None -> t.t_saved
  | Some r ->
    { p_done = Campaign.run_completed r;
      p_total = Campaign.run_cases r;
      p_executions = Campaign.run_executions r;
      p_reports =
        (match t.t_result with
        | Some c -> List.length c.Campaign.reports
        | None -> -1) }

let progress_to_json p =
  Jsonl.Obj
    [ ("done", Jsonl.Int p.p_done); ("total", Jsonl.Int p.p_total);
      ("executions", Jsonl.Int p.p_executions);
      ("reports", Jsonl.Int p.p_reports) ]

let progress_of_json j =
  let open Codec in
  let* p_done = field "done" int j in
  let* p_total = field "total" int j in
  let* p_executions = field "executions" int j in
  let* p_reports = field "reports" int j in
  Ok { p_done; p_total; p_executions; p_reports }

let header t =
  [ ("spec", Proto.spec_to_json t.t_spec);
    ("finished", Jsonl.Bool (t.t_phase = Finished));
    ("progress", progress_to_json (progress t)) ]
  @ match t.t_summary with Some s -> [ ("summary", Jsonl.Str s) ] | None -> []

(* The log's header reads the tenant at each save: the spec grows with
   Extend, and the last save carries the summary. *)
let make ~id ~path ~every ~torn spec entries =
  let self = ref None in
  let t =
    { t_id = id; t_spec = spec; t_phase = Pending; t_path = path;
      t_log =
        Caselog.log ~kind:ckpt_kind
          ~header:(fun () -> Option.fold ~none:[] ~some:header !self)
          ~delete:false ~every path entries;
      t_torn = torn; t_saved = no_progress; t_run = None; t_jobs = None;
      t_deficit = 0.0;
      t_dispatched = 0; t_contended = 0; t_steals = 0; t_result = None;
      t_summary = None }
  in
  self := Some t;
  t

let create ?state_dir ~every ~id spec =
  let file dir = Filename.concat dir ("tenant-" ^ spec.Proto.sp_name ^ ".ckpt") in
  make ~id ~path:(Option.map file state_dir) ~every ~torn:0 spec []

let id t = t.t_id
let phase t = t.t_phase
let weight t = max 1 t.t_spec.Proto.sp_weight
let summary t = t.t_summary
let result t = t.t_result
let torn t = t.t_torn
let jobs t = t.t_jobs

let resumed t = match t.t_run with Some r -> Campaign.run_replayed r | None -> 0

(* -- lifecycle ------------------------------------------------------------ *)

(* Prepare + generate the tenant's campaign, start it on the driver —
   which replays every logged result — and queue the rest on the pool. *)
let activate t pool =
  let options = Proto.options_of_spec t.t_spec in
  let prepared = Campaign.prepare options in
  let run =
    Campaign.start ~log:t.t_log prepared (Campaign.generate_prepared prepared)
  in
  t.t_run <- Some run;
  t.t_jobs <-
    Some
      (Pool.jobs pool ~tenant:t.t_id ~label:(name t) options
         (Campaign.prepared_corpus prepared) (Campaign.todo run)
         ~on_done:(Campaign.complete run));
  t.t_phase <- Active

(* The driver's fold: pool workers diagnosed each report with its case,
   so no kernel runs here, in the scheduler loop. *)
let finish t =
  match t.t_run with
  | Some run when t.t_phase = Active ->
    t.t_jobs <- None;
    let c = Campaign.finish run in
    t.t_result <- Some c;
    t.t_summary <- Some (Proto.summary c);
    t.t_phase <- Finished;
    c
  | Some _ | None -> invalid_arg "Tenant.finish: tenant is not active"

(* Called at finish and on shutdown or a dead pool: durable now,
   whatever the time budget of the periodic saves left unsynced. *)
let save_checkpoint t =
  if t.t_phase <> Cancelled then begin
    t.t_log.Campaign.save ();
    t.t_log.Campaign.sync ()
  end

let cancel t =
  if t.t_phase = Pending || t.t_phase = Active then begin
    t.t_phase <- Cancelled;
    t.t_jobs <- None;
    Option.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      t.t_path
  end

let fail t why =
  t.t_phase <- Failed why;
  t.t_jobs <- None

(* Grow the corpus and go around again; the log carries over. *)
let extend t ~add =
  t.t_spec <-
    { t.t_spec with
      Proto.sp_corpus_size = t.t_spec.Proto.sp_corpus_size + add };
  t.t_phase <- Pending;
  t.t_result <- None;
  t.t_summary <- None

(* -- scheduling hooks ----------------------------------------------------- *)

let claimable t =
  match t.t_jobs with Some j -> Pool.claimable j | None -> false

let is_drained t =
  match t.t_jobs with Some j -> Pool.drained j | None -> false

let deficit t = t.t_deficit
let set_deficit t d = t.t_deficit <- d

let note_dispatch t ~contended ~stolen =
  t.t_dispatched <- t.t_dispatched + 1;
  if contended then t.t_contended <- t.t_contended + 1;
  if stolen then t.t_steals <- t.t_steals + 1

(* -- status --------------------------------------------------------------- *)

(* Coverage summaries ride the finished result, like [ts_reports]:
   [-1] until the tenant finishes. *)
let cov_summary field t =
  match t.t_result with
  | Some c -> field (Coverage.summary c.Campaign.coverage)
  | None -> -1

let status t =
  let p = progress t in
  { Proto.ts_name = name t;
    ts_id = t.t_id;
    ts_state = phase_string t.t_phase;
    ts_weight = weight t;
    ts_done = p.p_done;
    ts_total = p.p_total;
    ts_executions = p.p_executions;
    ts_reports = p.p_reports;
    ts_resumed = resumed t;
    ts_dispatched = t.t_dispatched;
    ts_contended = t.t_contended;
    ts_steals = t.t_steals;
    ts_cov_vars = cov_summary (fun s -> s.Coverage.sum_vars) t;
    ts_cov_paired = cov_summary (fun s -> s.Coverage.sum_paired) t;
    ts_cov_attributed = cov_summary (fun s -> s.Coverage.sum_attributed) t;
    ts_cov_gaps = cov_summary (fun s -> s.Coverage.sum_gaps) t }

(* -- checkpoints ---------------------------------------------------------- *)

let header_of_json j =
  let open Codec in
  let* spec = field "spec" Proto.spec_of_json j in
  let* finished = field_or "finished" ~default:false bool j in
  let* summary =
    field_or "summary" ~default:None
      (fun s -> Result.map Option.some (string s))
      j
  in
  let* progress = field_or "progress" ~default:no_progress progress_of_json j in
  Ok (spec, finished, summary, progress)

(* Entries accumulate across records; the last record's spec, flag,
   summary and progress win. *)
let of_checkpoint ~every ~id path =
  match Caselog.read path ~kind:ckpt_kind header_of_json with
  | Error e -> Error (Checkpoint.error_to_string e)
  | Ok ([], _) ->
    Error
      (Checkpoint.error_to_string
         (Checkpoint.Checkpoint_corrupt (path ^ ": no complete record")))
  | Ok (rs, torn) ->
    let (spec, finished, summary, progress), _ =
      List.nth rs (List.length rs - 1)
    in
    let t =
      make ~id ~path:(Some path) ~every ~torn spec (List.concat_map snd rs)
    in
    t.t_saved <- progress;
    if finished then begin
      t.t_phase <- Finished;
      t.t_summary <- summary
    end;
    Ok t
