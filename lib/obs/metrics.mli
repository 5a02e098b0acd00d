(** The metrics registry: named counters, gauges and fixed-bucket
    histograms with O(1) hot-path recording.

    Handles are interned once per name (get-or-create); recording
    through a handle is a bool check plus a field mutation. A registry's
    [enabled] flag gates recording so instrumentation can stay in place
    with zero observable cost; [~always:true] metrics bypass the flag
    (for counters that are campaign accounting, not telemetry) and
    [~volatile:true] metrics hold wall-clock-derived values, excluded
    from snapshots by default so exports stay deterministic. *)

type registry
type counter
type gauge
type histogram

val create : ?enabled:bool -> unit -> registry
(** A fresh registry, recording by default. *)

val default : registry
(** The process-global default registry, created {e disabled}: hot-path
    instrumentation against it (e.g. per-sysno dispatch counting) costs
    one bool check until someone calls [set_enabled default true]. *)

val enabled : registry -> bool
val set_enabled : registry -> bool -> unit

val reset : registry -> unit
(** Zero every metric (names stay registered). *)

(** {2 Counters} *)

val counter : ?volatile:bool -> ?always:bool -> registry -> string -> counter
(** Get or create. @raise Invalid_argument if [name] is already
    registered with a different kind. *)

val inc : counter -> unit
val add : counter -> int -> unit
val set_counter : counter -> int -> unit
(** Overwrite with an absolute value — for mirroring an externally
    accumulated total into the registry. *)

val counter_value : counter -> int

(** {2 Gauges} *)

val gauge : ?volatile:bool -> ?always:bool -> registry -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms} *)

val histogram :
  ?volatile:bool -> ?always:bool -> ?buckets:float array -> registry ->
  string -> histogram
(** Fixed upper bucket bounds (ascending); one extra overflow bucket is
    appended. [buckets] is only consulted on first creation. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {2 Snapshots}

    A snapshot is a deterministic, structurally comparable view: an
    assoc list sorted by metric name. Volatile (wall-clock-derived)
    metrics are excluded unless [~volatile:true]. *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of { le : float list; counts : int list; sum : float; n : int }

type snapshot = (string * value) list

val snapshot : ?volatile:bool -> registry -> snapshot
val equal_snapshot : snapshot -> snapshot -> bool

val merge : snapshot list -> snapshot
(** Point-wise merge: counters and gauges sum, histograms with matching
    bounds sum bucket-wise. Used to combine a campaign bundle with the
    global default registry for export. @raise Invalid_argument on a
    name registered with incompatible kinds/bounds. *)

val absorb : registry -> snapshot -> unit
(** [absorb r snap] adds [snap]'s values into [r]'s own metrics
    (get-or-create by name, always-on) — the in-place counterpart of
    {!merge}, used to fold per-domain registries into the campaign
    bundle after a parallel execute phase. @raise Invalid_argument on a
    kind or bucket-bounds mismatch.

    Registries may be shared across domains: handle interning, {!reset},
    {!snapshot} and [absorb] are serialised on a process-wide mutex;
    recording through an interned handle stays unsynchronised (lost
    increments under contention are acceptable telemetry noise). *)
