(* Linux namespace kinds and per-process namespace sets (paper,
   Table 1). Instance 0 of every kind is the initial (host) namespace. *)

type kind = Pid | Mount | Uts | Ipc | Net | User | Cgroup | Time

let all_kinds = [ Pid; Mount; Uts; Ipc; Net; User; Cgroup; Time ]

let kind_to_string = function
  | Pid -> "pid"
  | Mount -> "mnt"
  | Uts -> "uts"
  | Ipc -> "ipc"
  | Net -> "net"
  | User -> "user"
  | Cgroup -> "cgroup"
  | Time -> "time"

let kind_flag k =
  let open Kit_abi.Consts in
  match k with
  | Pid -> clone_newpid
  | Mount -> clone_newns
  | Uts -> clone_newuts
  | Ipc -> clone_newipc
  | Net -> clone_newnet
  | User -> clone_newuser
  | Cgroup -> clone_newcgroup
  | Time -> clone_newtime

type set = {
  pid : int;
  mount : int;
  uts : int;
  ipc : int;
  net : int;
  user : int;
  cgroup : int;
  time : int;
}

let initial =
  { pid = 0; mount = 0; uts = 0; ipc = 0; net = 0; user = 0; cgroup = 0;
    time = 0 }

let get set = function
  | Pid -> set.pid
  | Mount -> set.mount
  | Uts -> set.uts
  | Ipc -> set.ipc
  | Net -> set.net
  | User -> set.user
  | Cgroup -> set.cgroup
  | Time -> set.time

let put set kind inst =
  match kind with
  | Pid -> { set with pid = inst }
  | Mount -> { set with mount = inst }
  | Uts -> { set with uts = inst }
  | Ipc -> { set with ipc = inst }
  | Net -> { set with net = inst }
  | User -> { set with user = inst }
  | Cgroup -> { set with cgroup = inst }
  | Time -> { set with time = inst }

let pp ppf set =
  let field k = Fmt.str "%s:%d" (kind_to_string k) (get set k) in
  Fmt.pf ppf "{%s}" (String.concat " " (List.map field all_kinds))
