(** The catalogue of functional interference bugs modelled in the
    kernel: faithful miniatures of the logic errors behind the paper's
    Table 2 (new bugs #1-#9 found in Linux 5.13) and Table 3 (known bugs
    A-E, plus the two documented bugs functional interference testing
    cannot detect, modelled as F and G).

    A bug being "present" in a {!set} selects the buggy code path of the
    corresponding subsystem; absent means the fixed path. *)

type id =
  | B1_ptype_leak              (** /proc/net/ptype shows foreign packet sockets *)
  | B2_flowlabel_send          (** exclusive flow-label state global: send path *)
  | B3_rds_bind                (** RDS bind table keyed without netns *)
  | B4_flowlabel_connect       (** exclusive flow-label state global: connect path *)
  | B5_sockstat_tcp            (** sockstat TCP inuse counter global *)
  | B6_cookie                  (** socket cookie counter global *)
  | B7_sctp_assoc              (** SCTP association-id space global *)
  | B8_protomem_sockstat       (** protocol memory counter global, via sockstat *)
  | B9_protomem_protocols      (** protocol memory counter global, via protocols *)
  | KA_prio_user               (** setpriority(PRIO_USER) crosses user namespaces *)
  | KB_uevent                  (** queue uevents broadcast to all net namespaces *)
  | KC_ipvs                    (** /proc/net/ip_vs shows foreign IPVS services *)
  | KD_conntrack_max           (** nf_conntrack_max sysctl global *)
  | KE_iouring_mount           (** io_uring resolves paths in the host mount ns *)
  | KF_conntrack_dump          (** foreign conntrack entries visible; inherently
                                   non-deterministic resource — undetectable *)
  | KG_sockdiag_foreign        (** foreign sockets visible by runtime id —
                                   undetectable *)
  | XT_timens_offset           (** extension: time-namespace clock offset kept
                                   global; invisible to plain functional
                                   interference testing, caught by the
                                   bounds-based detector *)
  | RW1_protomem_inflight      (** race window: transient global
                                   protocol-memory charge, rolled back before
                                   return — visible only mid-window *)
  | RW2_cookie_window          (** race window: global cookie
                                   allocation-in-progress marker; concurrent
                                   allocators take a collision gap *)
  | RW3_seqfile_busy           (** race window: global seq_file busy marker;
                                   readers racing a foreign render emit a
                                   truncation notice *)

val new_bugs : id list
(** The nine Table 2 bugs, in table order. *)

val race_bugs : id list
(** Race-window bugs: the buggy syscall restores steady state before
    returning, so no sequential schedule observes them — only an
    interleaved schedule landing inside the window can. They live in
    pseudo release "5.13-rw", keeping the default 5.13 population (and
    every sequential golden output) unchanged. *)

val to_string : id -> string
val compare : id -> id -> int
val equal : id -> id -> bool
val pp : Format.formatter -> id -> unit

val known_bug_version : id -> string
(** The kernel release each bug lives in; new bugs answer "5.13". *)

type set

val empty : set
val of_list : id list -> set
val to_list : set -> id list
val present : set -> id -> bool
val fix : set -> id -> set
val inject : set -> id -> set

val for_version : string -> set
(** The bug population of a kernel release: every bug whose home release
    matches. *)
