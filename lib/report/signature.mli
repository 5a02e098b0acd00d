(** System call signatures for report aggregation (paper, section 4.4):
    a call is represented by its name and the file descriptors it uses —
    here the producing call of each resource argument, plus the selector
    constants distinguishing kernel resources (paths, socket domains,
    sysctl names, priority targets). *)

type t = {
  name : string;
  details : string list;
}

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_call : Kit_abi.Program.t -> int -> t
(** The signature of call [i]; a ["?"] signature for out-of-range
    indices. *)
