(** Checker functions (paper, section 4.3.1, first encoding format):
    predicates selecting system calls that access namespace-protected
    resources by inspecting the call signature.

    The checkers are a closed set of plain values, so a specification
    is data: it compares with [=], marshals without closures and is
    named in a checkpoint header by its checkers' {!id}s. *)

type t =
  | Hostname           (** UTS: gethostname / sethostname *)
  | Prio_user          (** PID/user: get/setpriority on PRIO_USER *)
  | Conntrack_sysctl   (** net: the conntrack_max sysctl *)
  | Mount_paths        (** mount: /tmp/ path resolution *)
  | Netdev             (** net: network device registration *)
  | Ipvs               (** net: IPVS service configuration *)
  | Conntrack_entries  (** net: conntrack entries *)

val id : t -> string
(** A stable name ("uts-hostname", "prio-user", ...): the spec's
    identity in a campaign log header. *)

val matches : t -> Kit_abi.Program.call -> bool

val all : t list
(** Every checker — the default specification's. *)
