(** The observability bundle threaded through the pipeline: one metrics
    registry plus one span tracer. Recording through a bundle never
    changes campaign semantics (property-tested): metrics and spans are
    write-only side channels. *)

module Coverage = Coverage
(** The per-variable coverage ledger, re-exported as part of the
    observability plane. *)

type t = {
  metrics : Metrics.registry;
  tracer : Tracer.t;
}

val create : ?registry:Metrics.registry -> ?tracer:Tracer.t -> unit -> t
(** A recording bundle; fresh enabled registry and tracer by default. *)

val nop : t
(** The shared disabled bundle: recording costs a bool check; always-on
    accounting counters (see {!Metrics.counter}) still count. *)

val snapshot : ?volatile:bool -> t -> Metrics.snapshot

val export_lines : ?wall:bool -> ?meta:(string * Jsonl.t) list -> t -> string list
(** The bundle's full JSONL export (metrics + trace events).
    Deterministic unless [~wall:true]. *)
