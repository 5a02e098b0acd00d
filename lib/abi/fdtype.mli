(** File-descriptor (resource) types.

    The ABI-level vocabulary the partial specification uses to select
    system calls that access namespace-protected resources — the
    equivalent of Syzlang resource identifiers such as [sock_unix]
    (paper, section 4.3.1). *)

type t =
  | Sock_tcp
  | Sock_udp
  | Sock_packet
  | Sock_rds
  | Sock_sctp
  | Sock_unix
  | Sock_alg
  | Sock_uevent
  | Sock_inet6
  | Procfs_net   (** files under /proc/net — namespaced *)
  | Procfs_misc  (** other /proc files — mostly global *)
  | Tmpfile      (** files under /tmp — per mount namespace *)
  | Msgqid       (** System V message queue ids *)
  | Token        (** abstract runtime-id resources (known bug G) *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

val of_socket_domain : int -> t option
(** The fd type produced by [socket(domain)], if [domain] is valid. *)

val of_path : string -> t option
(** The fd type produced by opening or creating [path], if the model
    filesystem knows the path's area. *)
