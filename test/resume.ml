(* Helpers shared by the resume tests: campaign processes that die
   after a fixed number of completions, restarted from their
   case-result log. *)

module Campaign = Kit_core.Campaign
module Caselog = Kit_core.Caselog
module Cluster = Kit_gen.Cluster

exception Killed

(* [executor] killed after [n] completions. The driver saves what it
   recorded before the exception leaves [Campaign.execute], as it does
   when a pool loses every worker. *)
let killed_after ?(executor = Campaign.in_process) n : Campaign.executor =
 fun options corpus sup ~batch cases ~on_done ->
  let k = ref 0 in
  executor options corpus sup ~batch cases ~on_done:(fun case r execs ->
      on_done case r execs;
      incr k;
      if !k >= n then raise Killed)

(* A fresh path in the temp dir, removed after [f] whatever happens. *)
let with_path prefix f =
  let path = Filename.temp_file prefix ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let open_log ~every path options =
  match Caselog.campaign ~resume:true ~every path options with
  | Ok log -> log
  | Error e -> Alcotest.failf "%s: %s" path (Caselog.error_to_string e)

(* How many of the representatives [reps] the log replays. *)
let replayed (log : Campaign.log) reps =
  List.length (List.filteri (fun i tc -> log.Campaign.replay i tc <> None) reps)

(* One process: prepare, reopen the log, execute. Returns how many
   representatives the log replayed, and the campaign unless the
   process was killed. *)
let run_process ?executor ?kill ~every path options =
  let prepared = Campaign.prepare options in
  let generation = Campaign.generate_prepared prepared in
  let log = open_log ~every path options in
  let n = replayed log generation.Cluster.reps in
  let executor =
    match kill with
    | Some k -> Some (killed_after ?executor k)
    | None -> executor
  in
  match Campaign.execute ?executor ~log prepared generation with
  | c -> (n, Some c)
  | exception Killed -> (n, None)

(* Processes killed every [every] completions, each restarted from the
   log, until one finishes. *)
let rec run_chunked ?executor ~every path options =
  match run_process ?executor ~kill:every ~every path options with
  | _, Some c -> c
  | _, None -> run_chunked ?executor ~every path options
