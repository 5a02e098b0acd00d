(* System call signatures for report aggregation (paper, section 4.4):
   a call is represented by its name and the file descriptors it uses —
   here the producing call of each resource argument plus the selector
   constants that distinguish kernel resources (paths, socket domains,
   sysctl names, priority targets). *)

module Program = Kit_abi.Program
module Sysno = Kit_abi.Sysno
module Value = Kit_abi.Value
module Consts = Kit_abi.Consts

type t = {
  name : string;
  details : string list;
}

let to_string t =
  match t.details with
  | [] -> t.name
  | ds -> Printf.sprintf "%s[%s]" t.name (String.concat "," ds)

let pp ppf t = Fmt.string ppf (to_string t)

let first_str (call : Program.call) =
  List.find_map
    (function Value.Str s -> Some s | Value.Int _ | Value.Ref _ -> None)
    call.Program.args

let first_int (call : Program.call) =
  List.find_map
    (function Value.Int n -> Some n | Value.Str _ | Value.Ref _ -> None)
    call.Program.args

(* How a producing call is rendered as a descriptor detail. *)
let producer_detail prog j =
  match Program.nth prog j with
  | None -> "r?"
  | Some producer -> (
    let name = Sysno.to_string producer.Program.sysno in
    match producer.Program.sysno with
    | Sysno.Socket -> (
      match first_int producer with
      | Some d -> Consts.domain_name d
      | None -> name)
    | Sysno.Open | Sysno.Creat -> (
      match first_str producer with
      | Some path -> path
      | None -> name)
    | Sysno.Msgget -> "msgqid"
    | Sysno.Unshare | Sysno.Close | Sysno.Bind | Sysno.Connect | Sysno.Send
    | Sysno.Flowlabel_request | Sysno.Get_cookie | Sysno.Sctp_assoc
    | Sysno.Alloc_protomem | Sysno.Read | Sysno.Fstat | Sysno.Io_uring_read
    | Sysno.Msgsnd | Sysno.Msgrcv | Sysno.Msgctl_stat | Sysno.Setpriority
    | Sysno.Getpriority | Sysno.Sethostname | Sysno.Gethostname
    | Sysno.Netdev_create | Sysno.Uevent_recv | Sysno.Ipvs_add_service
    | Sysno.Sysctl_read | Sysno.Sysctl_write | Sysno.Conntrack_add
    | Sysno.Sock_diag | Sysno.Af_alg_bind | Sysno.Clock_gettime
    | Sysno.Clock_settime | Sysno.Getpid | Sysno.Token_create
    | Sysno.Token_stat ->
      name)

(* The signature of call [i] in [prog]. *)
let of_call prog i =
  match Program.nth prog i with
  | None -> { name = "?"; details = [] }
  | Some call ->
    let name = Sysno.to_string call.Program.sysno in
    let own_details =
      match call.Program.sysno with
      | Sysno.Socket -> (
        match first_int call with
        | Some d -> [ Consts.domain_name d ]
        | None -> [])
      | Sysno.Open | Sysno.Creat | Sysno.Io_uring_read | Sysno.Sysctl_read
      | Sysno.Sysctl_write -> (
        match first_str call with Some s -> [ s ] | None -> [])
      | Sysno.Setpriority | Sysno.Getpriority -> (
        match first_int call with
        | Some w when w = Consts.prio_user -> [ "PRIO_USER" ]
        | Some _ -> [ "PRIO_PROCESS" ]
        | None -> [])
      | Sysno.Unshare | Sysno.Close | Sysno.Bind | Sysno.Connect | Sysno.Send
      | Sysno.Flowlabel_request | Sysno.Get_cookie | Sysno.Sctp_assoc
      | Sysno.Alloc_protomem | Sysno.Read | Sysno.Fstat | Sysno.Msgget
      | Sysno.Msgsnd | Sysno.Msgrcv | Sysno.Msgctl_stat | Sysno.Sethostname
      | Sysno.Gethostname | Sysno.Netdev_create | Sysno.Uevent_recv
      | Sysno.Ipvs_add_service | Sysno.Conntrack_add | Sysno.Sock_diag
      | Sysno.Af_alg_bind | Sysno.Clock_gettime | Sysno.Clock_settime
      | Sysno.Getpid | Sysno.Token_create | Sysno.Token_stat ->
        []
    in
    let ref_details =
      List.filter_map
        (function
          | Value.Ref j -> Some (producer_detail prog j)
          | Value.Int _ | Value.Str _ -> None)
        call.Program.args
    in
    { name; details = own_details @ ref_details }
