(* The kit-serve client/server protocol. See proto.mli.

   One request per connection over a Unix-domain SOCK_STREAM socket,
   both directions one Wire frame holding JSON. The peer is any local
   process, so its bytes are parsed and validated by the codecs below,
   never unmarshalled: a garbage request, or a frame header announcing
   a negative length or one over [Wire.max_frame], earns a [Rejected]
   reply, not a crashed daemon (the connection is one-shot, so no
   re-synchronisation is needed). *)

module Campaign = Kit_core.Campaign
module Codec = Kit_core.Codec
module Cluster = Kit_gen.Cluster
module Jsonl = Kit_obs.Jsonl
module Tables = Kit_core.Tables
module Oracle = Kit_core.Oracle
module Bugs = Kit_kernel.Bugs

(* -- submissions ---------------------------------------------------------- *)

type spec = {
  sp_name : string;
  sp_seed : int;
  sp_corpus_size : int;
  sp_strategy : Cluster.strategy;
  sp_weight : int;
  sp_diagnose : bool;
  sp_schedules : int;
}

let default_spec =
  { sp_name = ""; sp_seed = 7; sp_corpus_size = 320; sp_strategy = Cluster.Df_ia;
    sp_weight = 1; sp_diagnose = true; sp_schedules = 1 }

let valid_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_')
       name

(* The campaign options a spec denotes — shared by the scheduler and by
   equivalence tests, so a tenant's run is the same campaign a solo
   [kit campaign] with the same seed/corpus/strategy would run. *)
let options_of_spec spec =
  { Campaign.default_options with
    Campaign.seed = spec.sp_seed;
    corpus_size = spec.sp_corpus_size;
    strategy = spec.sp_strategy;
    diagnose = spec.sp_diagnose;
    schedules = max 1 spec.sp_schedules;
    obs = None }

(* The spec's checkpoint codec: field names are the tags; the campaign
   identity (name, seed, corpus size, strategy) is required, the
   scheduling knobs fall back to [default_spec] when absent. *)
let strategy_to_json = function
  | Cluster.Df -> Jsonl.Str "df"
  | Cluster.Df_ia -> Jsonl.Str "df-ia"
  | Cluster.Df_st k -> Jsonl.Obj [ ("df-st", Jsonl.Int k) ]
  | Cluster.Rand n -> Jsonl.Obj [ ("rand", Jsonl.Int n) ]

let strategy_of_json = function
  | Jsonl.Str "df" -> Ok Cluster.Df
  | Jsonl.Str "df-ia" -> Ok Cluster.Df_ia
  | Jsonl.Obj fields as j when List.mem_assoc "df-st" fields ->
    Result.map (fun k -> Cluster.Df_st k) (Codec.field "df-st" Codec.int j)
  | Jsonl.Obj fields as j when List.mem_assoc "rand" fields ->
    Result.map (fun n -> Cluster.Rand n) (Codec.field "rand" Codec.int j)
  | _ -> Error "unknown strategy"

let spec_to_json s =
  Jsonl.Obj
    [ ("name", Jsonl.Str s.sp_name); ("seed", Jsonl.Int s.sp_seed);
      ("corpus_size", Jsonl.Int s.sp_corpus_size);
      ("strategy", strategy_to_json s.sp_strategy);
      ("weight", Jsonl.Int s.sp_weight);
      ("diagnose", Jsonl.Bool s.sp_diagnose);
      ("schedules", Jsonl.Int s.sp_schedules) ]

let spec_of_json j =
  let open Codec in
  let d = default_spec in
  let* sp_name = field "name" string j in
  let* sp_seed = field "seed" int j in
  let* sp_corpus_size = field "corpus_size" int j in
  let* sp_strategy = field "strategy" strategy_of_json j in
  let* sp_weight = field_or "weight" ~default:d.sp_weight int j in
  let* sp_diagnose = field_or "diagnose" ~default:d.sp_diagnose bool j in
  let* sp_schedules = field_or "schedules" ~default:d.sp_schedules int j in
  if not (valid_name sp_name) then Error ("invalid tenant name " ^ sp_name)
  else
    Ok
      { sp_name; sp_seed; sp_corpus_size; sp_strategy; sp_weight;
        sp_diagnose; sp_schedules }

(* -- requests and replies ------------------------------------------------- *)

type request =
  | Submit of spec
  | Extend of { x_name : string; x_add : int }
  | Status
  | Results of string
  | Cancel of string
  | Shutdown

type tenant_status = {
  ts_name : string;
  ts_id : int;
  ts_state : string;                     (* pending/active/finished/… *)
  ts_weight : int;
  ts_done : int;
  ts_total : int;                        (* 0 until activated *)
  ts_executions : int;
  ts_reports : int;                      (* -1 until finished *)
  ts_resumed : int;
  ts_dispatched : int;
  ts_contended : int;
  ts_steals : int;
  ts_cov_vars : int;                     (* -1 until finished *)
  ts_cov_paired : int;
  ts_cov_attributed : int;
  ts_cov_gaps : int;
}

type pool_status = {
  ps_procs : int;
  ps_live : int;
  ps_spawns : int;
  ps_deaths : int;
  ps_respawns : int;
}

type reply =
  | Accepted of { a_name : string; a_id : int }
  | Rejected of string
  | Status_is of { st_pool : pool_status; st_tenants : tenant_status list }
  | Summary of string
  | Not_ready of string
  | Acked
  | Bye

(* -- request and reply codecs ----------------------------------------------

   A constructor is its tag as a string when it has no payload, or a
   one-field object {tag: payload}. Decoders are total, like Codec's. *)

let tagged tag payload = Jsonl.Obj [ (tag, payload) ]

let constructor = function
  | Jsonl.Str tag -> Ok (tag, None)
  | Jsonl.Obj [ (tag, payload) ] -> Ok (tag, Some payload)
  | _ -> Error "expected a constructor"

let request_to_json = function
  | Submit spec -> tagged "submit" (spec_to_json spec)
  | Extend { x_name; x_add } ->
    tagged "extend"
      (Jsonl.Obj [ ("name", Jsonl.Str x_name); ("add", Jsonl.Int x_add) ])
  | Status -> Jsonl.Str "status"
  | Results name -> tagged "results" (Jsonl.Str name)
  | Cancel name -> tagged "cancel" (Jsonl.Str name)
  | Shutdown -> Jsonl.Str "shutdown"

let request_of_json j =
  let open Codec in
  let* tag, payload = constructor j in
  match tag, payload with
  | "submit", Some p -> Result.map (fun s -> Submit s) (spec_of_json p)
  | "extend", Some p ->
    let* x_name = field "name" string p in
    let* x_add = field "add" int p in
    Ok (Extend { x_name; x_add })
  | "status", None -> Ok Status
  | "results", Some p -> Result.map (fun n -> Results n) (string p)
  | "cancel", Some p -> Result.map (fun n -> Cancel n) (string p)
  | "shutdown", None -> Ok Shutdown
  | _ -> Error ("unknown request " ^ tag)

let pool_status_to_json p =
  Jsonl.Obj
    [ ("procs", Jsonl.Int p.ps_procs); ("live", Jsonl.Int p.ps_live);
      ("spawns", Jsonl.Int p.ps_spawns); ("deaths", Jsonl.Int p.ps_deaths);
      ("respawns", Jsonl.Int p.ps_respawns) ]

let pool_status_of_json j =
  let open Codec in
  let* ps_procs = field "procs" int j in
  let* ps_live = field "live" int j in
  let* ps_spawns = field "spawns" int j in
  let* ps_deaths = field "deaths" int j in
  let* ps_respawns = field "respawns" int j in
  Ok { ps_procs; ps_live; ps_spawns; ps_deaths; ps_respawns }

let tenant_status_to_json s =
  let i n = Jsonl.Int n in
  Jsonl.Obj
    [ ("name", Jsonl.Str s.ts_name); ("id", i s.ts_id);
      ("state", Jsonl.Str s.ts_state); ("weight", i s.ts_weight);
      ("done", i s.ts_done); ("total", i s.ts_total);
      ("executions", i s.ts_executions); ("reports", i s.ts_reports);
      ("resumed", i s.ts_resumed); ("dispatched", i s.ts_dispatched);
      ("contended", i s.ts_contended); ("steals", i s.ts_steals);
      ("cov_vars", i s.ts_cov_vars); ("cov_paired", i s.ts_cov_paired);
      ("cov_attributed", i s.ts_cov_attributed);
      ("cov_gaps", i s.ts_cov_gaps) ]

let tenant_status_of_json j =
  let open Codec in
  let* ts_name = field "name" string j in
  let* ts_id = field "id" int j in
  let* ts_state = field "state" string j in
  let* ts_weight = field "weight" int j in
  let* ts_done = field "done" int j in
  let* ts_total = field "total" int j in
  let* ts_executions = field "executions" int j in
  let* ts_reports = field "reports" int j in
  let* ts_resumed = field "resumed" int j in
  let* ts_dispatched = field "dispatched" int j in
  let* ts_contended = field "contended" int j in
  let* ts_steals = field "steals" int j in
  let* ts_cov_vars = field "cov_vars" int j in
  let* ts_cov_paired = field "cov_paired" int j in
  let* ts_cov_attributed = field "cov_attributed" int j in
  let* ts_cov_gaps = field "cov_gaps" int j in
  Ok
    { ts_name; ts_id; ts_state; ts_weight; ts_done; ts_total; ts_executions;
      ts_reports; ts_resumed; ts_dispatched; ts_contended; ts_steals;
      ts_cov_vars; ts_cov_paired; ts_cov_attributed; ts_cov_gaps }

let reply_to_json = function
  | Accepted { a_name; a_id } ->
    tagged "accepted"
      (Jsonl.Obj [ ("name", Jsonl.Str a_name); ("id", Jsonl.Int a_id) ])
  | Rejected why -> tagged "rejected" (Jsonl.Str why)
  | Status_is { st_pool; st_tenants } ->
    tagged "status"
      (Jsonl.Obj
         [ ("pool", pool_status_to_json st_pool);
           ("tenants", Jsonl.List (List.map tenant_status_to_json st_tenants)) ])
  | Summary s -> tagged "summary" (Jsonl.Str s)
  | Not_ready state -> tagged "not_ready" (Jsonl.Str state)
  | Acked -> Jsonl.Str "acked"
  | Bye -> Jsonl.Str "bye"

let reply_of_json j =
  let open Codec in
  let* tag, payload = constructor j in
  match tag, payload with
  | "accepted", Some p ->
    let* a_name = field "name" string p in
    let* a_id = field "id" int p in
    Ok (Accepted { a_name; a_id })
  | "rejected", Some p -> Result.map (fun s -> Rejected s) (string p)
  | "status", Some p ->
    let* st_pool = field "pool" pool_status_of_json p in
    let* st_tenants = field "tenants" (list tenant_status_of_json) p in
    Ok (Status_is { st_pool; st_tenants })
  | "summary", Some p -> Result.map (fun s -> Summary s) (string p)
  | "not_ready", Some p -> Result.map (fun s -> Not_ready s) (string p)
  | "acked", None -> Ok Acked
  | "bye", None -> Ok Bye
  | _ -> Error ("unknown reply " ^ tag)

(* -- the deterministic results summary ------------------------------------ *)

(* Byte-identical between a tenant's [kit results] and a solo
   [kit campaign --summary] on the same inputs: strategy + cluster and
   report counts, the filtering funnel (Table 5), the new-bug oracle
   line, the quarantine count and (when diagnosis ran) the aggregated
   report groups. Deliberately no wall-clock content. *)
let summary (c : Campaign.t) =
  let found = Oracle.new_bugs_found c.Campaign.keyed in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str "strategy %s: %d clusters, %d reports after filtering\n"
       (Cluster.strategy_name c.Campaign.generation.Cluster.strategy)
       c.Campaign.generation.Cluster.clusters
       (List.length c.Campaign.reports));
  Buffer.add_string b (Tables.table5 c);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Fmt.str "new bugs found (%d/9): %a\n" (List.length found)
       (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
       found);
  Buffer.add_string b
    (Fmt.str "quarantined: %d\n" (List.length c.Campaign.quarantined));
  (* The concurrent section only exists when schedule search ran:
     sequential-only summaries stay byte-identical to pre-scheduler
     output (the CI serve gate diffs them). *)
  if c.Campaign.options.Campaign.schedules > 1 then begin
    let s = c.Campaign.sched in
    let race = Oracle.race_bugs_found c.Campaign.concurrent in
    Buffer.add_string b
      (Fmt.str
         "schedule search (%d seeds/case): %d candidates, %d classes, \
          %d executed, %d pruned, %d skipped\n"
         c.Campaign.options.Campaign.schedules s.Campaign.sched_candidates
         s.Campaign.sched_classes s.Campaign.sched_executed
         s.Campaign.sched_pruned s.Campaign.sched_skipped);
    Buffer.add_string b
      (Fmt.str "concurrent reports: %d\n"
         (List.length c.Campaign.concurrent));
    Buffer.add_string b
      (Fmt.str "race-window bugs found (%d/%d): %a\n" (List.length race)
         (List.length Bugs.race_bugs)
         (Fmt.list ~sep:(Fmt.any ", ") Bugs.pp)
         race)
  end;
  if c.Campaign.options.Campaign.diagnose then begin
    Buffer.add_string b (Kit_report.Render.groups c.Campaign.agg_rs);
    Buffer.add_char b '\n'
  end;
  Buffer.contents b

(* -- sockets -------------------------------------------------------------- *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try Unix.connect fd (Unix.ADDR_UNIX path); fd
  with e -> Unix.close fd; raise e

let listen path =
  (* Only a stale path is unlinked: binding over one a daemon still
     answers on would cut that daemon off from its clients. *)
  (match connect path with
   | fd ->
     Unix.close fd;
     raise (Unix.Unix_error (Unix.EADDRINUSE, "listen", path))
   | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> (
     try Unix.unlink path with Unix.Unix_error _ -> ())
   | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let request socket (req : request) : (reply, string) result =
  match connect socket with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot reach the daemon at %s: %s" socket
         (Unix.error_message e))
  | fd ->
    let out = Buffer.create 256 and inbox = Wire.inbox () in
    Wire.add_frame out (Jsonl.to_string (request_to_json req));
    let hung_up = Error "the daemon hung up without replying" in
    let rec reply () =
      match Wire.take inbox with
      | Wire.Frame payload ->
        Result.map_error (( ^ ) "undecodable reply: ")
          (Codec.parse reply_of_json payload)
      | Wire.Bad why -> Error ("bad reply frame: " ^ why)
      | Wire.Short -> if Wire.fill fd inbox then reply () else hung_up
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Wire.flush fd out with
        | exception (Unix.Unix_error _ | Sys_error _) ->
          Error "the daemon hung up before reading the request"
        | () -> ( try reply () with Unix.Unix_error _ -> hung_up))
