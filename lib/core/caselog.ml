(* Case-result logs. See caselog.mli.

   A record is one JSON object: the caller's header fields, then
   "entries". Tenant records ({"spec", "finished", "progress"?,
   "summary"?, "entries"}) keep kind serve-tenant-v4 across format
   growth, because decoders ignore unknown fields and default absent
   optional ones: a log written while reports carried both traces, or
   before headers carried progress, still loads. The reverse does not
   hold: a binary that still requires report traces reads a newer
   record holding a report as Checkpoint_corrupt. A campaign log's
   header is one "campaign" object naming every result-changing
   option, byte for byte as older logs wrote it, so they still match.

   Durability: a save's bytes are written before it returns, so a
   killed process loses at most the completions recorded since the
   last save. An append is fsynced when the last fsync is more than
   [sync_budget_s] old, and [sync] — which the drivers call at every
   final save — fsyncs the rest, so a machine crash loses at most the
   records appended within that budget of the last fsync. Either way
   the file reads back under the torn-tail rule. *)

module Jsonl = Kit_obs.Jsonl
module Testcase = Kit_gen.Testcase
module Cluster = Kit_gen.Cluster
module Config = Kit_kernel.Config
module Fault = Kit_kernel.Fault
module Bugs = Kit_kernel.Bugs
module Spec = Kit_spec.Spec

type entry = string * (Campaign.case_result * int)

let entry_to_json (fp, (result, execs)) =
  Jsonl.Obj
    [ ("fp", Jsonl.Str fp); ("execs", Jsonl.Int execs);
      ("result", Codec.case_result_to_json result) ]

let entry_of_json e =
  let open Codec in
  let* fp = field "fp" string e in
  let* execs = field "execs" int e in
  let* result = field "result" case_result_of_json e in
  Ok (fp, (result, execs))

let record ~header entries =
  Jsonl.to_string
    (Jsonl.Obj
       (header @ [ ("entries", Jsonl.List (List.map entry_to_json entries)) ]))

(* -- reading and writing -------------------------------------------------- *)

let read path ~kind header =
  let record j =
    let open Codec in
    let* h = header j in
    let* entries = field_or "entries" ~default:[] (list entry_of_json) j in
    Ok (h, entries)
  in
  let rec decode i acc = function
    | [] -> Ok (List.rev acc)
    | payload :: rest -> (
      match Codec.parse record payload with
      | Ok r -> decode (i + 1) (r :: acc) rest
      | Error e ->
        Error
          (Checkpoint.Checkpoint_corrupt
             (Printf.sprintf "%s: record %d: %s" path i e)))
  in
  match Checkpoint.read path ~kind with
  | Error _ as e -> e
  | Ok { Checkpoint.records; torn } ->
    Result.map (fun rs -> (rs, torn)) (decode 0 [] records)

(* How stale the log's last fsync may be before a save fsyncs again.
   A constant, not an option: it caps what a machine crash can lose at
   the records of one fixed window, while saves land every few
   milliseconds on a busy pool. An fsync per save made a kitbench
   serve-2t round (2 tenants x RAND 1500, a save per 16 completions)
   188 fsyncs, about 40 ms of its 0.18 s; with the budget it makes 4. *)
let sync_budget_s = 0.1

(* The log's first save writes every entry, which also compacts the
   file and drops any torn tail it was loaded with, so no append ever
   lands behind a partial record; later saves append the entries
   recorded since, and fsync when the last fsync is older than the
   budget. [sync] fsyncs whatever a save left unsynced. *)
let log ~kind ~header ~delete ~every path entries =
  let table = Hashtbl.create 64 in
  List.iter (fun (fp, e) -> Hashtbl.replace table fp e) entries;
  let written = ref false and unsaved = ref [] in
  let synced_at = ref neg_infinity and unsynced = ref false in
  let save path =
    let now = Unix.gettimeofday () in
    if !written && Sys.file_exists path then begin
      let fsync = now -. !synced_at >= sync_budget_s in
      Checkpoint.append ~fsync path
        (record ~header:(header ()) (List.rev !unsaved));
      if fsync then synced_at := now;
      unsynced := not fsync
    end
    else begin
      Checkpoint.write path ~kind
        [ record ~header:(header ())
            (Hashtbl.fold (fun fp e acc -> (fp, e) :: acc) table []) ];
      written := true;
      synced_at := now;
      unsynced := false
    end;
    unsaved := []
  in
  let sync path =
    if !unsynced && Sys.file_exists path then begin
      Checkpoint.sync path;
      synced_at := Unix.gettimeofday ();
      unsynced := false
    end
  in
  { Campaign.replay =
      (fun _ tc -> Hashtbl.find_opt table (Testcase.fingerprint tc));
    record =
      (fun tc r execs ->
        let fp = Testcase.fingerprint tc in
        Hashtbl.replace table fp (r, execs);
        if path <> None then unsaved := (fp, (r, execs)) :: !unsaved);
    every = max 1 every;
    save = (fun () -> Option.iter save path);
    sync = (fun () -> Option.iter sync path);
    close =
      (fun () ->
        match path with
        | Some p when delete && Sys.file_exists p -> Sys.remove p
        | Some _ | None -> ()) }

(* -- campaign logs -------------------------------------------------------- *)

let campaign_kind = "campaign-cases-v1"

type error =
  | Unreadable of Checkpoint.error
  | Options_differ of string

let error_to_string = function
  | Unreadable e -> Checkpoint.error_to_string e
  | Options_differ name ->
    Printf.sprintf "option %s differs from the checkpoint's" name

let strs l = Jsonl.List (List.map (fun s -> Jsonl.Str s) l)

(* Every option that changes a case result, by name. The spec is named
   by its checker ids and its counted seed selectors — the header bytes
   logs have always carried, so older logs still match. *)
let options_fields (o : Campaign.options) =
  let c = o.Campaign.config and s = o.Campaign.spec in
  [ ( "config",
      Jsonl.Obj
        [ ("version", Jsonl.Str c.Config.version);
          ("jump_label", Jsonl.Bool c.Config.jump_label);
          ("bugs", strs (List.map Bugs.to_string (Bugs.to_list c.Config.bugs)));
          ("boot_seed", Jsonl.Int c.Config.boot_seed) ] );
    ( "spec",
      Jsonl.Obj
        [ ( "fd_types",
            strs (List.map Kit_abi.Fdtype.to_string s.Spec.protected_fd_types) );
          ( "checkers",
            strs (List.map Kit_spec.Checker.id s.Spec.checkers) );
          ("seed_selectors", Jsonl.Int (List.length s.Spec.seed_selectors));
          ("var_prefixes", strs s.Spec.protected_var_prefixes) ] );
    ( "strategy",
      Jsonl.Str
        (match o.Campaign.strategy with
        | Cluster.Rand n -> Printf.sprintf "RAND-%d" n
        | s -> Cluster.strategy_name s) );
    ("seed", Jsonl.Int o.Campaign.seed);
    ("corpus_size", Jsonl.Int o.Campaign.corpus_size);
    ("reruns", Jsonl.Int o.Campaign.reruns);
    ("fuel", Jsonl.Int o.Campaign.fuel);
    ("max_retries", Jsonl.Int o.Campaign.max_retries);
    ("faults", Jsonl.Str (Fault.schedule_to_string o.Campaign.faults));
    ("schedules", Jsonl.Int o.Campaign.schedules) ]

(* The first option a stored header disagrees on. *)
let differing fields = function
  | Jsonl.Obj stored ->
    List.find_map
      (fun (name, v) ->
        if List.assoc_opt name stored = Some v then None else Some name)
      fields
  | _ -> Some "campaign"

let load path fields =
  match read path ~kind:campaign_kind (Codec.field "campaign" Result.ok) with
  | Error e -> Error (Unreadable e)
  | Ok ([], _) ->
    Error
      (Unreadable (Checkpoint.Checkpoint_corrupt (path ^ ": no complete record")))
  | Ok (records, _torn) -> (
    match List.find_map (fun (h, _) -> differing fields h) records with
    | Some name -> Error (Options_differ name)
    | None -> Ok (List.concat_map snd records))

let campaign ?(resume = false) ~every path options =
  let fields = options_fields options in
  let loaded =
    if resume && Sys.file_exists path then load path fields else Ok []
  in
  Result.map
    (log ~kind:campaign_kind
       ~header:(fun () -> [ ("campaign", Jsonl.Obj fields) ])
       ~delete:true ~every (Some path))
    loaded
