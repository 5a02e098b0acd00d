(* File-descriptor (resource) types, the ABI-level vocabulary that the
   partial specification (lib/spec) uses to select system calls which
   access namespace-protected resources (paper, section 4.3.1: Syzlang
   resource identifiers such as [sock_unix]). *)

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
  | Procfs_net
  | Procfs_misc
  | Tmpfile
  | Msgqid
  | Token

let to_string = function
  | Sock_tcp -> "sock_tcp"
  | Sock_udp -> "sock_udp"
  | Sock_packet -> "sock_packet"
  | Sock_rds -> "sock_rds"
  | Sock_sctp -> "sock_sctp"
  | Sock_unix -> "sock_unix"
  | Sock_alg -> "sock_alg"
  | Sock_uevent -> "sock_uevent"
  | Sock_inet6 -> "sock_inet6"
  | Procfs_net -> "procfs_net"
  | Procfs_misc -> "procfs_misc"
  | Tmpfile -> "tmpfile"
  | Msgqid -> "msgqid"
  | Token -> "token"

let compare = Stdlib.compare
let equal a b = compare a b = 0

let of_socket_domain d =
  if d = Consts.dom_tcp then Some Sock_tcp
  else if d = Consts.dom_udp then Some Sock_udp
  else if d = Consts.dom_packet then Some Sock_packet
  else if d = Consts.dom_rds then Some Sock_rds
  else if d = Consts.dom_sctp then Some Sock_sctp
  else if d = Consts.dom_unix then Some Sock_unix
  else if d = Consts.dom_alg then Some Sock_alg
  else if d = Consts.dom_uevent then Some Sock_uevent
  else if d = Consts.dom_inet6 then Some Sock_inet6
  else None

let of_path path =
  if String.length path >= 10 && String.equal (String.sub path 0 10) "/proc/net/"
  then Some Procfs_net
  else if String.length path >= 6 && String.equal (String.sub path 0 6) "/proc/"
  then Some Procfs_misc
  else if String.length path >= 5 && String.equal (String.sub path 0 5) "/tmp/"
  then Some Tmpfile
  else None
