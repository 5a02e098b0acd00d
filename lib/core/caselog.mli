(** Case-result logs: the one checkpoint format for executed cluster
    representatives.

    A log is a KITCKPT1 log ({!Checkpoint}) of JSON records. Every
    record holds a header its caller supplies and a list of entries,
    each one representative's testcase {!fingerprint}, its execution
    count and its case result ({!Codec}):

    {v {<header fields>, "entries": [{"fp", "execs", "result"}, ...]} v}

    The first save of a process writes the whole log atomically; every
    later save appends one record with only the entries completed
    since, so a save costs O(new completions) and one fsync. Two
    callers:
    - [kit campaign] and [kit coverage --checkpoint] ({!campaign}),
      whatever the executor — sequential, [--domains] or [--procs];
    - [kit serve] tenant checkpoints ([Serve.Tenant], kind
      ["serve-tenant-v4"]), whose header is the spec, the finished flag
      and the summary. *)

val fingerprint : Kit_gen.Testcase.t -> string
(** The key of a representative's result: a streaming FNV hash of the
    testcase fields, 16 hex digits, identical across processes. Corpus
    generation is prefix-stable, so a representative hashes to the same
    key in a resumed or grown campaign. *)

type entry = string * (Campaign.case_result * int)
(** [(fingerprint, (result, executions))]. *)

(** {2 Reading and writing} *)

type writer
(** One process's view of a log file: whether it has written the file
    in full yet, and the entries added since its last save. *)

val writer : kind:string -> writer

val add : writer -> entry -> unit

val save :
  writer -> string -> header:(string * Kit_obs.Jsonl.t) list ->
  all:(unit -> entry list) -> unit
(** [save w path ~header ~all]: on the writer's first save to [path]
    (or if the file has gone), replace [path] with one record holding
    [all ()]; later, append one record with the entries {!add}ed since
    the previous save. Ends with an fsync either way. *)

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
    diagnosis, and the executor is no option at all. With [resume] and
    an existing file, its records must all carry this header, and their
    entries are replayed; otherwise the log starts empty and its first
    save replaces whatever [path] held. A log deletes its file when
    closed, that is, once the campaign's result is built. Nothing is
    written by this call, so an [Error] leaves the file as it was. *)
