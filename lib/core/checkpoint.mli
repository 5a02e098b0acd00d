(** Validated KITCKPT1 checkpoint files.

    Every checkpoint the system writes — campaign execute-phase state,
    process-pool completion logs — goes through this module, which wraps
    the Marshal payload in a header the loader can verify {e before}
    deserialising untrusted bytes: the [KITCKPT1] magic, a [kind] tag
    distinguishing checkpoint families, the payload length and an MD5
    digest. Truncated or bit-flipped files surface as a typed
    {!error.Checkpoint_corrupt} with a message naming the failure,
    never as a raw [Failure] or a segfaulting [Marshal.from_channel].

    Writes are atomic and durable (fsynced temp file, rename, fsynced
    directory), so a writer killed or a machine crashing
    mid-checkpoint leaves the previous checkpoint intact. *)

val magic : string
(** ["KITCKPT1"] — shared by every checkpoint family; [kind]
    disambiguates. *)

type error =
  | Io of string
      (** the file cannot be opened or read (e.g. does not exist) *)
  | Not_checkpoint of string
      (** the file exists but does not start with the KITCKPT1 magic *)
  | Checkpoint_corrupt of string
      (** magic matched but the rest is unusable: wrong [kind],
          truncated payload, digest mismatch, or undecodable Marshal
          bytes *)

val error_to_string : error -> string

val save : string -> kind:string -> 'a -> unit
(** Atomically and durably write [path]: magic, [kind], payload length,
    MD5 digest, Marshal payload. *)

val load : string -> kind:string -> ('a, error) result
(** Validate and read back a checkpoint written by {!save} with the
    same [kind]. The caller fixes ['a]; as with any Marshal read the
    type must match what was saved — the [kind] tag exists so distinct
    checkpoint families can never be confused for each other. *)
