(** The [kit serve] client/server protocol: submission specs, requests,
    replies, the deterministic results summary and the Unix-domain
    socket plumbing shared by the daemon ({!Sched.serve}) and the
    one-shot clients ([kit submit] / [kit status] / [kit results] /
    [kit cancel]).

    Transport: one request per connection over a [SOCK_STREAM]
    Unix-domain socket, each direction a single {!Wire} frame holding
    JSON ({!request_to_json}, {!reply_to_json}). The daemon parses and
    validates every request and never unmarshals a peer's bytes: an
    undecodable request, or a frame header announcing a negative length
    or one beyond [Wire.max_frame], is answered with a clean
    {!reply.Rejected}. *)

(** What a tenant asks the daemon to run: the same knobs as a solo
    [kit campaign], plus the scheduling contract ([sp_weight] for the
    deficit-round-robin quota). *)
type spec = {
  sp_name : string;
  sp_seed : int;
  sp_corpus_size : int;
  sp_strategy : Kit_gen.Cluster.strategy;
  sp_weight : int;
  sp_diagnose : bool;
  sp_schedules : int;
      (** interleaved schedule seeds per case; 1 = sequential only *)
}

val default_spec : spec
(** Seed 7, corpus 320, DF-IA, weight 1, diagnosis on, sequential-only
    schedules — and an empty (invalid) name callers must fill in. *)

val valid_name : string -> bool
(** Tenant names become checkpoint file names: 1–64 chars drawn from
    [[A-Za-z0-9_-]]. *)

val options_of_spec : spec -> Kit_core.Campaign.options
(** The campaign a spec denotes — exactly what a solo [kit campaign]
    with the same seed, corpus size and strategy runs, which is what
    makes a tenant's {!summary} byte-comparable to the standalone
    run's. *)

val spec_to_json : spec -> Kit_obs.Jsonl.t

val spec_of_json : spec Kit_core.Codec.decoder
(** The spec's checkpoint codec. Name, seed, corpus size and strategy
    are required (and the name must be {!valid_name}); weight,
    diagnosis and schedules take {!default_spec}'s values when absent.
    Unknown fields are ignored, so a log written while specs carried
    an in-flight cap still loads. *)

type request =
  | Submit of spec
  | Extend of { x_name : string; x_add : int }
      (** grow a finished tenant's corpus by [x_add] programs and re-run
          as a delta campaign (cached per-case results are reused) *)
  | Status
  | Results of string                  (** fetch a tenant's summary *)
  | Cancel of string
  | Shutdown                           (** checkpoint everything and exit *)

type tenant_status = {
  ts_name : string;
  ts_id : int;
  ts_state : string;       (** pending | active | finished | cancelled |
                               failed: reason *)
  ts_weight : int;
  ts_done : int;                       (** completed representatives *)
  ts_total : int;                      (** 0 until activated *)
  ts_executions : int;
  ts_reports : int;                    (** -1 until finished *)
  ts_resumed : int;                    (** cases restored, not re-run *)
  ts_dispatched : int;
  ts_contended : int;
      (** dispatches made while another tenant also had claimable work —
          the denominator of the fairness share *)
  ts_steals : int;
      (** dispatches taken beyond quota from idle tenants' slack *)
  ts_cov_vars : int;
      (** coverage-ledger universe size; [-1] until finished (like
          [ts_reports] — the ledger is assembled with the result) *)
  ts_cov_paired : int;
      (** vars with an overlapping write/read pair observed *)
  ts_cov_attributed : int;             (** vars pinned by a report *)
  ts_cov_gaps : int;                   (** vars with no overlapping pair *)
}

type pool_status = {
  ps_procs : int;
  ps_live : int;
  ps_spawns : int;
  ps_deaths : int;
  ps_respawns : int;
}

type reply =
  | Accepted of { a_name : string; a_id : int }
  | Rejected of string
  | Status_is of {
      st_pool : pool_status;
      st_tenants : tenant_status list;  (** in submission (id) order *)
    }
  | Summary of string                  (** a {!summary} *)
  | Not_ready of string
      (** [Results] on a tenant still pending/active — the payload is
          its state string; [kit results --wait] polls on this *)
  | Acked                              (** cancel acknowledged *)
  | Bye                                (** daemon is shutting down *)

(** {2 Codecs}

    A constructor without payload is its tag as a JSON string
    (["status"]); one with a payload is a one-field object
    ([{"results": "alpha"}]). Decoders are total: malformed input is an
    [Error], never an exception. A [Submit] decodes through
    {!spec_of_json}, so its name is validated. *)

val request_to_json : request -> Kit_obs.Jsonl.t
val request_of_json : request Kit_core.Codec.decoder
val reply_to_json : reply -> Kit_obs.Jsonl.t
val reply_of_json : reply Kit_core.Codec.decoder

val summary : Kit_core.Campaign.t -> string
(** The deterministic campaign summary: strategy + cluster/report
    counts, the filtering funnel (Table 5), the new-bug oracle line,
    the quarantine count, the schedule-search section (only when the
    campaign ran with [schedules > 1] — sequential summaries are
    byte-identical to pre-scheduler output), and the aggregated report
    groups when diagnosis ran. No wall-clock content, so
    [kit results NAME] and [kit campaign --summary] on the same
    seed/corpus/strategy are byte-identical — the CI serve gate diffs
    them. *)

(** {2 Sockets} *)

val listen : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path, unlinking it first
    only if it is stale (missing, or a connect to it is refused); a path
    a daemon answers on raises [Unix_error (EADDRINUSE, "listen", path)].
    Close-on-exec, so pool workers never inherit it. *)

val request : string -> request -> (reply, string) result
(** One-shot client call: connect to the socket path, send the request,
    read the single reply, close. All transport failures (daemon absent,
    hang-up, a bad or undecodable reply frame) come back as
    [Error message]. *)
