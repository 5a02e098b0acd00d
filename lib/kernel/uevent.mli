(** Kobject uevents over netlink, and network device registration
    (known bug B): the buggy kernel sends queue uevents without
    namespace filtering — modelled as a global broadcast queue drained
    by every namespace's receive path. *)

type t

val init : Heap.t -> Config.t -> t

val netdev_create : Ctx.t -> t -> netns:int -> name:string ->
  (unit, Errno.t) result
(** Register a network device and emit its rx/tx queue uevents;
    [EEXIST] for duplicate names within a namespace. *)

val recv : Ctx.t -> t -> netns:int -> string list
(** Drain the pending uevents visible to [netns]. *)

val open_queue : Ctx.t -> t -> netns:int -> unit
(** Materialise [netns]'s queue (opening a uevent socket). *)
