(** Linux namespace kinds and per-process namespace sets (paper,
    Table 1). Instance 0 of every kind is the initial (host)
    namespace. *)

type kind = Pid | Mount | Uts | Ipc | Net | User | Cgroup | Time

val all_kinds : kind list

val kind_flag : kind -> int
(** The unshare/clone flag bit selecting this kind. *)

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

val initial : set
val get : set -> kind -> int
val put : set -> kind -> int -> set
