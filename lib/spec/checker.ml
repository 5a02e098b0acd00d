(* Checker functions (paper, section 4.3.1, first encoding format):
   predicates that select system calls accessing namespace-protected
   resources by inspecting the call signature. A closed variant rather
   than closures, so a specification stays plain data. *)

module Program = Kit_abi.Program
module Sysno = Kit_abi.Sysno
module Value = Kit_abi.Value
module Consts = Kit_abi.Consts

type t =
  | Hostname
  | Prio_user
  | Conntrack_sysctl
  | Mount_paths
  | Netdev
  | Ipvs
  | Conntrack_entries

let id = function
  | Hostname -> "uts-hostname"
  | Prio_user -> "prio-user"
  | Conntrack_sysctl -> "conntrack-sysctl"
  | Mount_paths -> "mount-paths"
  | Netdev -> "netdev"
  | Ipvs -> "ipvs"
  | Conntrack_entries -> "conntrack-entries"

let int_arg (call : Program.call) i =
  match List.nth_opt call.Program.args i with
  | Some (Value.Int n) -> Some n
  | Some (Value.Str _ | Value.Ref _) | None -> None

let str_arg (call : Program.call) i =
  match List.nth_opt call.Program.args i with
  | Some (Value.Str s) -> Some s
  | Some (Value.Int _ | Value.Ref _) | None -> None

let is_sys s (call : Program.call) = Sysno.equal call.Program.sysno s

let matches t c =
  match t with
  | Hostname ->
    (* UTS namespace: hostname reads and writes. *)
    is_sys Sysno.Gethostname c || is_sys Sysno.Sethostname c
  | Prio_user ->
    (* PID/user namespaces: per-user priorities (PRIO_USER only). *)
    (is_sys Sysno.Getpriority c || is_sys Sysno.Setpriority c)
    && int_arg c 0 = Some Consts.prio_user
  | Conntrack_sysctl ->
    (* net namespace: the conntrack sysctls are namespaced state. *)
    (is_sys Sysno.Sysctl_read c || is_sys Sysno.Sysctl_write c)
    && str_arg c 0 = Some Consts.sysctl_conntrack_max
  | Mount_paths -> (
    (* mount namespace: path resolution of non-proc paths. *)
    (is_sys Sysno.Io_uring_read c || is_sys Sysno.Creat c || is_sys Sysno.Open c)
    &&
    match str_arg c 0 with
    | Some path ->
      String.length path >= 5 && String.equal (String.sub path 0 5) "/tmp/"
    | None -> false)
  | Netdev -> is_sys Sysno.Netdev_create c
  | Ipvs -> is_sys Sysno.Ipvs_add_service c
  | Conntrack_entries -> is_sys Sysno.Conntrack_add c

let all =
  [ Hostname; Prio_user; Conntrack_sysctl; Mount_paths; Netdev; Ipvs;
    Conntrack_entries ]
