(** Netfilter connection tracking and the sysctl surface.

    - Known bug D (CVE-2021-38209): nf_conntrack_max is global; a write
      from any net namespace changes every container's limit.
    - Known bug F: /proc/net/nf_conntrack shows foreign entries, but the
      file is inherently time-dependent (expiry columns, transient
      timer entries), so functional interference testing cannot flag it
      (paper, section 6.2).
    - somaxconn models a sysctl the specification correctly leaves
      unprotected; divergences on it feed Table 5's resource filter. *)

type t

val init : Heap.t -> Config.t -> t

val max_read : Ctx.t -> t -> netns:int -> int
val max_write : Ctx.t -> t -> netns:int -> int -> unit

val somaxconn_read : Ctx.t -> t -> int
val somaxconn_write : Ctx.t -> t -> int -> unit

val add : Ctx.t -> t -> netns:int -> port:int -> now:int -> unit
(** Insert a tracked connection. *)

val seq_show : Ctx.t -> t -> cur:int -> now:int -> string list
(** Render /proc/net/nf_conntrack at kernel time [now]; content varies
    with [now] even without any sender. *)
