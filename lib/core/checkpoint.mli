(** Validated KITCKPT1 checkpoint files.

    Every checkpoint the system writes goes through this module. A file
    is a log: a header (the [KITCKPT1] magic and a [kind] tag
    distinguishing checkpoint families) followed by any number of
    records, each an 8-byte payload length, the payload's MD5 digest
    and the payload. Length and digest are verified before a payload is
    handed to anyone, so truncated or bit-flipped files surface as a
    typed {!error.Checkpoint_corrupt}, never as a raw [Failure].

    Two ways to write:
    - {!write} replaces the file atomically and durably: fsynced temp
      file, rename, fsynced directory. A crash at any point leaves the
      previous file or the complete new one.
    - {!append} adds one record to the end of an existing log and
      fsyncs the file: one fsync instead of two, and the cost is the
      record, not the file. A crash midway leaves a torn tail. With
      [~fsync:false] the record is written but not synced: a killed
      process loses none of it (the kernel holds the bytes), a machine
      crash may lose it, and a later {!sync} makes it durable.

    {b The torn-tail rule.} {!read} returns every complete record. An
    incomplete or digest-failing record with nothing valid after it is
    a torn tail: {!read} drops it and reports the dropped byte count. A
    damaged record with a valid record after it cannot come from a
    crash, so the file is {!error.Checkpoint_corrupt}.

    One caller: {!Caselog}, the case-result log behind both
    [kit campaign]/[kit coverage --checkpoint] and the [kit serve]
    tenant checkpoints ([Serve.Tenant]). The first save of each process
    writes the whole log with {!write}; later saves {!append} the new
    completions as typed JSON records, and fsync on a time budget
    ({!Caselog.log}). *)

val magic : string
(** ["KITCKPT1"] — shared by every checkpoint family; [kind]
    disambiguates. *)

type error =
  | Io of string
      (** the file cannot be opened or read (e.g. does not exist) *)
  | Not_checkpoint of string
      (** the file exists but does not start with the KITCKPT1 magic *)
  | Checkpoint_corrupt of string
      (** magic matched but the rest is unusable: truncated header,
          wrong [kind], or a damaged record followed by valid data *)

val error_to_string : error -> string

(** {2 Logs} *)

val write : string -> kind:string -> string list -> unit
(** [write path ~kind records] atomically and durably replaces [path]
    with a log holding [records] in order. *)

val append : ?fsync:bool -> string -> string -> unit
(** [append path payload] adds one record to the end of the existing
    log at [path], then fsyncs it unless [fsync] is [false].
    @raise Unix.Unix_error when [path] cannot be opened or written. *)

val sync : string -> unit
(** fsync the file at [path], making every record appended to it
    durable.
    @raise Unix.Unix_error when [path] cannot be opened or synced. *)

type log = {
  records : string list;  (** every complete record's payload, in order *)
  torn : int;             (** bytes of torn tail dropped; 0 when none *)
}

val read : string -> kind:string -> (log, error) result
(** Validate and read a log written by {!write} and {!append} with the
    same [kind], applying the torn-tail rule. *)
