(** Per-syscall argument descriptions, used by the corpus generator to
    build well-formed random calls and to mutate arguments without
    breaking resource typing. *)

type arg_kind =
  | A_domain                       (** socket domain constant *)
  | A_fd of Fdtype.t list          (** resource of one of these types *)
  | A_port
  | A_label                        (** IPv6 flow label *)
  | A_flags of int list
  | A_path of string list
  | A_name                         (** short identifier-like string *)
  | A_key                          (** System V IPC key *)
  | A_uid
  | A_prio
  | A_which                        (** PRIO_PROCESS / PRIO_USER *)
  | A_nbytes
  | A_sysctl of string list
  | A_int_small

type t = {
  sysno : Sysno.t;
  args : arg_kind list;
}

val describe : Sysno.t -> t

val random_arg :
  Random.State.t -> resolve_fd:(Fdtype.t list -> int option) -> arg_kind ->
  Value.t
(** Generate a random concrete value for an argument kind. [resolve_fd]
    picks a [Value.Ref] to a previous call producing one of the wanted
    fd types, when available. *)
