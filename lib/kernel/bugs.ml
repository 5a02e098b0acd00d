(* The catalogue of functional interference bugs modelled in the kernel.
   Each is a faithful miniature of the logic error behind a bug from the
   paper's evaluation: Table 2 (new bugs #1-#9 in Linux 5.13) and Table 3
   (known bugs A-E, plus the two documented bugs that functional
   interference testing cannot detect, modelled as F and G). A bug being
   "present" selects the buggy code path in the corresponding subsystem;
   "absent" selects the fixed path. *)

type id =
  | B1_ptype_leak              (* /proc/net/ptype shows foreign packet sockets *)
  | B2_flowlabel_send          (* exclusive flow label state global: send path *)
  | B3_rds_bind                (* RDS bind table keyed without netns *)
  | B4_flowlabel_connect       (* exclusive flow label state global: connect path *)
  | B5_sockstat_tcp            (* sockstat TCP inuse counter global *)
  | B6_cookie                  (* socket cookie counter global *)
  | B7_sctp_assoc              (* SCTP association id space global *)
  | B8_protomem_sockstat       (* protocol memory counter global, via sockstat *)
  | B9_protomem_protocols      (* protocol memory counter global, via protocols *)
  | KA_prio_user               (* setpriority(PRIO_USER) crosses user namespaces *)
  | KB_uevent                  (* queue uevents broadcast to all net namespaces *)
  | KC_ipvs                    (* /proc/net/ip_vs shows foreign IPVS services *)
  | KD_conntrack_max           (* nf_conntrack_max sysctl global *)
  | KE_iouring_mount           (* io_uring resolves paths in the host mount ns *)
  | KF_conntrack_dump          (* conntrack dump shows foreign entries; resource
                                  is inherently non-deterministic, undetectable *)
  | KG_sockdiag_foreign        (* sock_diag shows foreign sockets; requires a
                                  runtime resource id, undetectable *)
  | XT_timens_offset           (* extension: time-namespace clock offset kept
                                  global; invisible to plain functional
                                  interference testing, caught by the
                                  bounds-based detector *)
  | RW1_protomem_inflight      (* race window: in-flight protocol-memory
                                  charge published globally during
                                  proto_memory_allocated_add and rolled back
                                  before return; sockstat readers racing the
                                  window see the transient charge *)
  | RW2_cookie_window          (* race window: global allocation-in-progress
                                  marker around sock_gen_cookie; a concurrent
                                  allocator skips a collision-avoidance gap *)
  | RW3_seqfile_busy           (* race window: seq_file renderer publishes a
                                  global busy marker; a reader racing a
                                  foreign render emits a truncation notice *)

let new_bugs =
  [ B1_ptype_leak; B2_flowlabel_send; B3_rds_bind; B4_flowlabel_connect;
    B5_sockstat_tcp; B6_cookie; B7_sctp_assoc; B8_protomem_sockstat;
    B9_protomem_protocols ]

let known_bugs =
  [ KA_prio_user; KB_uevent; KC_ipvs; KD_conntrack_max; KE_iouring_mount;
    KF_conntrack_dump; KG_sockdiag_foreign ]

let extension_bugs = [ XT_timens_offset ]

(* Race-window bugs: steady state is restored before the buggy syscall
   returns, so no sequential sender-then-receiver order can observe
   them — only an interleaved schedule landing inside the window can
   (ROADMAP: interleaving exploration). They live in their own pseudo
   release "5.13-rw" so [for_version "5.13"] — and with it every
   default profile, summary and golden test — is unchanged. *)
let race_bugs = [ RW1_protomem_inflight; RW2_cookie_window; RW3_seqfile_busy ]

let all = new_bugs @ known_bugs @ extension_bugs @ race_bugs

let to_string = function
  | B1_ptype_leak -> "bug#1-ptype-leak"
  | B2_flowlabel_send -> "bug#2-flowlabel-send"
  | B3_rds_bind -> "bug#3-rds-bind"
  | B4_flowlabel_connect -> "bug#4-flowlabel-connect"
  | B5_sockstat_tcp -> "bug#5-sockstat-tcp"
  | B6_cookie -> "bug#6-socket-cookie"
  | B7_sctp_assoc -> "bug#7-sctp-assoc"
  | B8_protomem_sockstat -> "bug#8-protomem-sockstat"
  | B9_protomem_protocols -> "bug#9-protomem-protocols"
  | KA_prio_user -> "known-A-prio-user"
  | KB_uevent -> "known-B-uevent"
  | KC_ipvs -> "known-C-ipvs"
  | KD_conntrack_max -> "known-D-conntrack-max"
  | KE_iouring_mount -> "known-E-iouring-mount"
  | KF_conntrack_dump -> "known-F-conntrack-dump"
  | KG_sockdiag_foreign -> "known-G-sockdiag"
  | XT_timens_offset -> "ext-timens-offset"
  | RW1_protomem_inflight -> "race#1-protomem-inflight"
  | RW2_cookie_window -> "race#2-cookie-window"
  | RW3_seqfile_busy -> "race#3-seqfile-busy"

let compare = Stdlib.compare
let equal a b = compare a b = 0
let pp ppf t = Fmt.string ppf (to_string t)

(* The kernel release in which each known bug lives (Table 3); new bugs
   are all present in 5.13, the release the paper tested. *)
let known_bug_version = function
  | KA_prio_user -> "4.4"
  | KB_uevent -> "3.14"
  | KC_ipvs -> "4.15"
  | KD_conntrack_max -> "5.13"
  | KE_iouring_mount -> "5.6"
  | KF_conntrack_dump -> "4.15"
  | KG_sockdiag_foreign -> "4.10"
  | XT_timens_offset -> "5.13"
  | RW1_protomem_inflight | RW2_cookie_window | RW3_seqfile_busy -> "5.13-rw"
  | B1_ptype_leak | B2_flowlabel_send | B3_rds_bind | B4_flowlabel_connect
  | B5_sockstat_tcp | B6_cookie | B7_sctp_assoc | B8_protomem_sockstat
  | B9_protomem_protocols ->
    "5.13"

module Bug_set = Set.Make (struct
  type nonrec t = id

  let compare = compare
end)

type set = Bug_set.t

let empty = Bug_set.empty
let of_list = Bug_set.of_list
let to_list = Bug_set.elements
let present set id = Bug_set.mem id set
let inject set id = Bug_set.add id set

(* The bug population of a given kernel release: every bug whose home
   release matches. KD (found in 5.13) coexists with the nine new bugs. *)
let for_version version =
  let matching = List.filter (fun b -> String.equal (known_bug_version b) version) all in
  of_list matching
