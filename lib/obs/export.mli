(** Telemetry export: one self-describing JSON object per line (JSONL)
    and the inverse parser behind [kit stats].

    Line kinds: [meta] (version + caller context), [counter] / [gauge] /
    [hist] (one per metric, in snapshot order), [event] (one per tracer
    event, oldest first) and [dropped] (ring-buffer overflow count, only
    when nonzero).

    Deterministic by default: volatile metrics must already be excluded
    from the snapshot (see {!Metrics.snapshot}) and per-event wall
    timestamps are only emitted with [~wall:true] — so the export of a
    fixed-seed campaign is byte-stable across runs (golden-tested). *)

val lines :
  ?wall:bool -> ?meta:(string * Jsonl.t) list ->
  ?events:Tracer.event list -> ?dropped:int -> Metrics.snapshot ->
  string list
(** Render an export, leading meta line included. *)

val write_file : string -> string list -> unit

(** {2 Parsing} *)

type parsed = {
  p_meta : (string * Jsonl.t) list;  (** meta fields, sans [k]/[version] *)
  p_snapshot : Metrics.snapshot;
  p_events : Tracer.event list;      (** [wall = 0.] when not exported *)
  p_dropped : int;
}

val read_file : string -> (parsed, string) result

(** {2 Streaming} *)

type line =
  | Meta of (string * Jsonl.t) list
  | Metric of string * Metrics.value
  | Event of Tracer.event
  | Dropped of int
      (** One parsed export line (blank lines yield nothing). *)

val fold_file : string -> init:'a -> f:('a -> line -> 'a) -> ('a, string) result
(** Fold [f] over an export file one parsed line at a time, without
    materialising the line list — [kit trace] uses this on exports far
    larger than the tracer ring. Stops at the first malformed line. *)
