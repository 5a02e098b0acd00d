(** The span tracer: nested begin/end phase spans and instant events in
    a size-capped ring buffer.

    Events carry a deterministic timestamp ([time] — the event sequence
    number by default, or a caller-supplied virtual-clock reading) and a
    wall-clock one; deterministic exports use only the former. When the
    ring is full the oldest events are dropped and counted. *)

type kind = Begin | End | Instant

type event = {
  seq : int;                        (** monotone event number *)
  time : int;                       (** deterministic timestamp *)
  kind : kind;
  name : string;
  attrs : (string * string) list;
  wall : float;                     (** wall-clock seconds at record time *)
}

type span
(** A handle returned by {!span}; pass it to {!finish}. Spans from a
    disabled tracer are inert. *)

type t

val create : ?cap:int -> ?enabled:bool -> unit -> t
(** [cap] (default 4096) bounds the event ring. *)

val nop : t
(** A shared inert tracer: recording is a single bool check. *)

val span :
  t -> ?attrs:(string * string) list -> ?time:int -> ?wall:float -> string ->
  span
(** Record a [Begin] event and return the handle for {!finish}. [time]
    overrides the deterministic timestamp (e.g. the virtual clock);
    [wall] overrides the wall-clock one — callers that also measure the
    same interval (e.g. a phase gauge) pass their own readings so the
    span duration is exactly the measured one. *)

val finish : t -> ?time:int -> ?wall:float -> span -> unit

val with_span :
  t -> ?attrs:(string * string) list -> ?time:int -> string ->
  (unit -> 'a) -> 'a
(** Bracket [f] in a span; the [End] event is recorded even if [f]
    raises. *)

val instant :
  t -> ?attrs:(string * string) list -> ?time:int -> ?wall:float -> string ->
  unit

val events : t -> event list
(** Buffered events, oldest first (at most [cap]). *)

val recorded : t -> int
(** Events ever recorded, including dropped ones. *)

val dropped : t -> int

val merge : t -> event list list -> unit
(** [merge t rings] folds per-domain rings into [t] — the tracer
    counterpart of [Metrics.absorb]. The rings are interleaved into one
    deterministic stream, a k-way merge taking, at each step, the ring
    whose head event has the smallest (deterministic time, ring index).
    Each ring's internal order — and so its Begin/End nesting — is
    preserved unconditionally, even when deterministic times rewind
    within a ring (virtual-clock spans across snapshot restores).
    Events are re-recorded with fresh sequence numbers but their
    original deterministic and wall timestamps. No-op on a disabled
    tracer. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
