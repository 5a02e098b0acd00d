(** Case-result logs: the one checkpoint format for executed cluster
    representatives.

    A log is a KITCKPT1 log ({!Checkpoint}) of JSON records. Every
    record holds a header its caller supplies and a list of entries,
    each one representative's {!Kit_gen.Testcase.fingerprint}, its
    execution count and its case result ({!Codec}):

    {v {<header fields>, "entries": [{"fp", "execs", "result"}, ...]} v}

    One constructor ({!log}) serves two callers, which differ only in
    kind, header and whether closing deletes the file:
    - [kit campaign] and [kit coverage --checkpoint] ({!campaign}),
      whatever the executor — sequential, [--domains] or [--procs];
    - [kit serve] tenants ([Serve.Tenant], kind ["serve-tenant-v4"]),
      whose header is the spec, the finished flag and the summary, and
      whose log outlives the campaign. *)

type entry = string * (Campaign.case_result * int)
(** [(fingerprint, (result, executions))]. *)

(** {2 Reading and writing} *)

val log :
  kind:string -> header:(unit -> (string * Kit_obs.Jsonl.t) list) ->
  delete:bool -> every:int -> string option -> entry list -> Campaign.log
(** [log ~kind ~header ~delete ~every path entries]: a log that replays
    [entries] (the last entry of a fingerprint wins) and every
    completion recorded since, saved every [every] completions. Its
    first save replaces [path] (or the file that has gone) with one
    record holding every entry, durably; later saves append one record
    with the entries recorded since. Each record carries [header ()] at
    the time of the save. Without a path nothing is written. [close]
    deletes the file when [delete].

    {b Durability.} An append fsyncs only when the log's last fsync is
    more than 100 ms old; [sync] fsyncs whatever the saves left
    unsynced, and the drivers call it at every final save (the end of a
    campaign's execute phase, a tenant's finish, a daemon's shutdown).
    So a killed process loses at most the completions recorded since
    the last save, as with an fsync per append, and a machine crash
    loses at most the records appended within 100 ms of the last fsync.
    Either way the file reads back under the torn-tail rule
    ({!Checkpoint}). *)

val read :
  string -> kind:string -> 'h Codec.decoder ->
  (('h * entry list) list * int, Checkpoint.error) result
(** Every complete record as its decoded header and entries, in file
    order, plus the bytes of torn tail dropped ({!Checkpoint.read}). An
    undecodable record is [Checkpoint_corrupt]. *)

(** {2 Campaign logs} *)

val campaign_kind : string
(** ["campaign-cases-v1"]. *)

type error =
  | Unreadable of Checkpoint.error
      (** not a campaign log, corrupt, or holding no complete record *)
  | Options_differ of string
      (** the log was taken under a different value of the named
          option *)

val error_to_string : error -> string

val campaign :
  ?resume:bool -> every:int -> string -> Campaign.options ->
  (Campaign.log, error) result
(** The log at [path] for a campaign with these options, saved every
    [every] completions. Its header records every option that changes
    a case result: the kernel config, the spec, the strategy, seed,
    corpus size, reruns, fuel, retry budget, the expanded fault
    schedule and the schedule count — not domains, baseline caching or
    diagnosis, and the executor is no option at all (a log taken
    without diagnosis resumes with it: {!Campaign.start} runs its
    reported cases again). With [resume] and
    an existing file, its records must all carry this header, and their
    entries are replayed; otherwise the log starts empty and its first
    save replaces whatever [path] held. A log deletes its file when
    closed, that is, once the campaign's result is built. Nothing is
    written by this call, so an [Error] leaves the file as it was. *)
