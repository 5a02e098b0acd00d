(** System call identifiers of the model kernel ABI.

    The set mirrors the slice of the Linux interface that the paper's
    evaluation exercises: namespace management, the socket families
    involved in the Table 2/3 bugs, procfs, System V IPC, priorities,
    hostnames, sysctls, uevents, and a few interfaces that are global by
    design and feed the false-positive analysis. *)

type t =
  | Unshare
  | Socket
  | Close
  | Bind
  | Connect
  | Send
  | Flowlabel_request
  | Get_cookie
  | Sctp_assoc
  | Alloc_protomem
  | Open
  | Read
  | Fstat
  | Creat
  | Io_uring_read
  | Msgget
  | Msgsnd
  | Msgrcv
  | Msgctl_stat
  | Setpriority
  | Getpriority
  | Sethostname
  | Gethostname
  | Netdev_create
  | Uevent_recv
  | Ipvs_add_service
  | Sysctl_read
  | Sysctl_write
  | Conntrack_add
  | Sock_diag
  | Af_alg_bind
  | Clock_gettime
  | Clock_settime
  | Getpid
  | Token_create
  | Token_stat

val all : t list
(** Every system call, in a stable order. *)

val to_string : t -> string
(** The ABI name, e.g. ["flowlabel_request"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] for unknown names. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
