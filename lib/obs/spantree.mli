(** Span-tree reconstruction from the flat {!Tracer} event ring.

    Events are split into lanes — one per distinct value of the first
    matching lane attribute ([domain] / [worker] by default), so
    per-domain rings folded together by {!Tracer.merge} do not corrupt
    each other's Begin/End pairing — then each lane's nesting is rebuilt
    with a stack machine.

    The builder never fails on truncated rings: an [End] whose [Begin]
    was dropped synthesizes a truncated root that adopts everything
    reconstructed so far in its lane, and a [Begin] with no [End] is
    closed at the lane's last event and flagged. Both are counted. *)

type node = {
  n_name : string;
  n_attrs : (string * string) list;
  n_begin : int;                    (** deterministic begin timestamp *)
  n_end : int;
  n_wbegin : float;                 (** wall begin (0.0 when absent) *)
  n_wend : float;
  n_children : node list;           (** in event order *)
  n_instant : bool;
  n_truncated : bool;               (** Begin or End lost to the ring *)
}

type t = {
  lanes : (string * node list) list;  (** lane key -> roots, first-seen order *)
  spans : int;                        (** span nodes (instants excluded) *)
  instants : int;
  truncated_begins : int;             (** Ends whose Begin was dropped *)
  unfinished : int;                   (** Begins never ended *)
  dropped : int;                      (** ring drop count from the export *)
}

val default_lane_attrs : string list
(** [["domain"; "worker"]] *)

val main_lane : string
(** Lane key for events carrying none of the lane attrs: ["main"]. *)

val build : ?lane_attrs:string list -> ?dropped:int -> Tracer.event list -> t
(** Reconstruct the tree from events in ring order. [dropped] is carried
    through to {!t.dropped} for reporting. *)

val roots : t -> node list
(** All lanes' roots concatenated in lane order. *)

val wall_duration : node -> float
(** Wall seconds, clamped to be non-negative; 0 for instants and for
    deterministic exports that carry no wall times. *)

val det_duration : node -> int
(** Deterministic duration [n_end - n_begin], clamped non-negative. *)

val fingerprint : ?ignore:string list -> t -> string
(** A hex digest of the causal structure: span names, non-ignored attrs
    (by default all but the placement attrs ["domain"], ["worker"] and
    ["domains"]) and nesting, with timestamps, sequence numbers and lane
    placement excluded. Traces of the same campaign sharded over different domain
    counts digest identically. *)

val render : ?max_depth:int -> t -> string
(** Indented text rendering of all lanes; children beyond [max_depth]
    are elided with a count. *)

val to_chrome : t -> Jsonl.t
(** Chrome trace-event JSON (the ["traceEvents"] object form): complete
    ["X"] events for spans, ["i"] instants, one [tid] per lane with a
    [thread_name] metadata record. Loadable in Perfetto and
    chrome://tracing. Timestamps are microseconds — wall-clock rebased
    to the trace start when available, deterministic otherwise. *)
