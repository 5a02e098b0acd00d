(* Helpers shared by the resume tests: campaign processes that die
   after a fixed number of completions, restarted from their
   case-result log. *)

module Campaign = Kit_core.Campaign
module Caselog = Kit_core.Caselog
module Cluster = Kit_gen.Cluster

exception Killed

(* [log]'s process killed after [n] completions: it dies as the next
   completion arrives or, with none left, as the result is built, before
   the log is closed. The driver saves what it recorded before the
   exception leaves [Campaign.drive], as it does when a pool loses
   every worker. *)
let killed_after n (log : Campaign.log) =
  let k = ref 0 in
  { log with
    Campaign.record =
      (fun tc r execs ->
        if !k >= n then raise Killed;
        incr k;
        log.Campaign.record tc r execs);
    close = (fun () -> if !k >= n then raise Killed else log.Campaign.close ()) }

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
  let log = match kill with Some k -> killed_after k log | None -> log in
  match Campaign.drive ?executor (Campaign.start ~log prepared generation) with
  | c -> (n, Some c)
  | exception Killed -> (n, None)

(* Processes killed every [every] completions, each restarted from the
   log, until one finishes. *)
let rec run_chunked ?executor ~every path options =
  match run_process ?executor ~kill:every ~every path options with
  | _, Some c -> c
  | _, None -> run_chunked ?executor ~every path options
