(* Per-syscall argument descriptions, used by the corpus generator to
   build well-formed random calls and by mutation to vary arguments
   without breaking resource typing. *)

type arg_kind =
  | A_domain                       (* socket domain constant *)
  | A_fd of Fdtype.t list          (* resource of one of these types *)
  | A_port
  | A_label                        (* IPv6 flow label *)
  | A_flags of int list
  | A_path of string list
  | A_name                         (* short identifier-ish string *)
  | A_key                          (* SysV IPC key *)
  | A_uid
  | A_prio
  | A_which                        (* PRIO_PROCESS / PRIO_USER *)
  | A_nbytes
  | A_sysctl of string list
  | A_int_small

type t = {
  sysno : Sysno.t;
  args : arg_kind list;
}

let describe sysno =
  let args =
    match sysno with
    | Sysno.Unshare ->
      [ A_flags
          [ Consts.clone_newnet; Consts.clone_newipc; Consts.clone_newuts;
            Consts.clone_newpid; Consts.clone_newns; Consts.clone_newuser ] ]
    | Sysno.Socket -> [ A_domain ]
    | Sysno.Close -> [ A_fd [] ]
    | Sysno.Bind ->
      [ A_fd [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_rds;
               Fdtype.Sock_sctp; Fdtype.Sock_unix; Fdtype.Sock_inet6 ];
        A_port ]
    | Sysno.Connect ->
      [ A_fd [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_sctp;
               Fdtype.Sock_inet6 ];
        A_port; A_label ]
    | Sysno.Send ->
      [ A_fd [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_sctp;
               Fdtype.Sock_inet6 ];
        A_nbytes; A_label ]
    | Sysno.Flowlabel_request ->
      [ A_fd [ Fdtype.Sock_inet6 ]; A_label; A_flags [ Consts.fl_excl; 0 ] ]
    | Sysno.Get_cookie ->
      [ A_fd [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_packet;
               Fdtype.Sock_inet6; Fdtype.Sock_unix ] ]
    | Sysno.Sctp_assoc -> [ A_fd [ Fdtype.Sock_sctp ] ]
    | Sysno.Alloc_protomem ->
      [ A_fd [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_sctp;
               Fdtype.Sock_inet6 ];
        A_nbytes ]
    | Sysno.Open -> [ A_path Consts.proc_paths ]
    | Sysno.Read -> [ A_fd [ Fdtype.Procfs_net; Fdtype.Procfs_misc; Fdtype.Tmpfile ] ]
    | Sysno.Fstat -> [ A_fd [ Fdtype.Procfs_net; Fdtype.Procfs_misc; Fdtype.Tmpfile ] ]
    | Sysno.Creat -> [ A_path [ "/tmp/kit0"; "/tmp/kit1"; "/tmp/kit2" ] ]
    | Sysno.Io_uring_read -> [ A_path [ "/tmp/kit0"; "/tmp/kit1"; "/tmp/kit2" ] ]
    | Sysno.Msgget -> [ A_key ]
    | Sysno.Msgsnd -> [ A_fd [ Fdtype.Msgqid ]; A_name ]
    | Sysno.Msgrcv -> [ A_fd [ Fdtype.Msgqid ] ]
    | Sysno.Msgctl_stat -> [ A_fd [ Fdtype.Msgqid ] ]
    | Sysno.Setpriority -> [ A_which; A_uid; A_prio ]
    | Sysno.Getpriority -> [ A_which; A_uid ]
    | Sysno.Sethostname -> [ A_name ]
    | Sysno.Gethostname -> []
    | Sysno.Netdev_create -> [ A_name ]
    | Sysno.Uevent_recv -> [ A_fd [ Fdtype.Sock_uevent ] ]
    | Sysno.Ipvs_add_service -> [ A_port ]
    | Sysno.Sysctl_read ->
      [ A_sysctl [ Consts.sysctl_conntrack_max; Consts.sysctl_somaxconn ] ]
    | Sysno.Sysctl_write ->
      [ A_sysctl [ Consts.sysctl_conntrack_max; Consts.sysctl_somaxconn ];
        A_int_small ]
    | Sysno.Conntrack_add -> [ A_port ]
    | Sysno.Sock_diag -> [ A_int_small ]
    | Sysno.Af_alg_bind -> [ A_fd [ Fdtype.Sock_alg ]; A_name ]
    | Sysno.Clock_gettime -> []
    | Sysno.Clock_settime -> [ A_int_small ]
    | Sysno.Getpid -> []
    | Sysno.Token_create -> []
    | Sysno.Token_stat -> [ A_int_small ]
  in
  { sysno; args }

(* Generate a random concrete value for an argument kind. [resolve_fd]
   picks a [Value.Ref] to a previous call producing one of the wanted fd
   types, when available. *)
let random_arg rng ~resolve_fd kind =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  match kind with
  | A_domain -> Value.Int (pick Consts.domains)
  | A_fd wanted -> (
    match resolve_fd wanted with
    | Some i -> Value.Ref i
    | None -> Value.Int (Random.State.int rng 4))
  | A_port -> Value.Int (1000 + Random.State.int rng 8)
  | A_label -> Value.Int (1 + Random.State.int rng 6)
  | A_flags choices -> Value.Int (pick choices)
  | A_path choices -> Value.Str (pick choices)
  | A_name ->
    Value.Str (Printf.sprintf "n%d" (Random.State.int rng 6))
  | A_key -> Value.Int (100 + Random.State.int rng 4)
  | A_uid -> Value.Int (1000 + Random.State.int rng 2)
  | A_prio -> Value.Int (Random.State.int rng 20 - 10)
  | A_which ->
    Value.Int (if Random.State.bool rng then Consts.prio_user else Consts.prio_process)
  | A_nbytes -> Value.Int (1 + Random.State.int rng 64)
  | A_sysctl choices -> Value.Str (pick choices)
  | A_int_small -> Value.Int (Random.State.int rng 16)
