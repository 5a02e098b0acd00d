(** The [kit serve] scheduler: a multi-tenant campaign daemon over one
    shared {!Pool}.

    A single-threaded event loop owns the pool and every {!Tenant}.
    Each {!step}: activate pending tenants (up to [sc_max_active]),
    dispatch idle worker slots by deficit round robin, poll the pool,
    pass its events through the pool's job policy ({!Pool.handle}) of
    every active tenant, finish drained tenants (diagnosis +
    aggregation + checkpoint) and refresh the [serve.*] gauges.

    {b Fair sharing.} Deficit round robin: every refill grants each
    active tenant [weight] credits (capped at 8x weight), a dispatch
    spends one, and when all credit is stranded on tenants that cannot
    run (in-flight cap, momentarily no claimable work) the first
    runnable tenant in submission order {e steals} — its deficit goes
    negative and repays over later refills. Under contention,
    executed-case shares converge to the weight vector
    (property-tested); without contention the pool never idles.

    {b Crash safety.} Each tenant's campaign driver saves its
    case-result log every [sc_checkpoint_every] completions (kind
    ["serve-tenant-v4"]: see {!Tenant}). A SIGKILLed daemon restarted
    with {!resume} rebuilds every tenant from [sc_state_dir] and
    replays logged results at activation — no logged representative is
    re-executed, and finished tenants keep serving their summaries.

    {b Equivalence.} Per-case results are schedule-independent and
    merged in representative order, so each tenant's report is
    byte-identical to a solo [kit campaign] of the same spec, whatever
    the interleaving, kill schedule or resume point (property-tested;
    enforced end-to-end by the CI serve gate). *)

type config = {
  sc_pool : Pool.config;
  sc_max_active : int;         (** concurrently executing tenants *)
  sc_max_pending : int;        (** admission bound on waiting tenants *)
  sc_state_dir : string option;    (** tenant checkpoints live here *)
  sc_checkpoint_every : int;   (** completions between checkpoints *)
}

val default_config : config
(** Default pool, 4 active, 16 pending, no state dir, checkpoint
    every 16. *)

exception Dead_pool
(** Every worker slot is dead (respawn budgets spent) with tenant work
    remaining. Raised by {!step} {e after} checkpointing every tenant,
    so a restarted daemon resumes. *)

type t

val create : ?obs:Kit_obs.Obs.t -> config -> t
(** Spawn the pool and (if configured) create the state directory.
    [obs] receives the [serve.*] counters/gauges, per-submission
    ["serve.submission"] spans and the pool's own [pool.*] metrics. *)

val shutdown : t -> unit
(** Shut the pool down. Does not checkpoint — {!serve} and
    {!request}[ Shutdown] do that. *)

val resume : t -> (string * string) list
(** Rebuild tenants from every [tenant-*.ckpt] in the state directory
    (sorted by file name). Returns [(name, state)] per restored tenant,
    for logging; the state says when a torn tail was dropped.
    Unreadable checkpoints (damaged, or of an older kind) come back as
    [(file, "unreadable checkpoint: ...")] and are not fatal. *)

val request : t -> Proto.request -> Proto.reply
(** The daemon's request handler, exposed directly so in-process tests
    drive the full protocol without sockets. [Submit] admits (name
    validity, uniqueness, pending bound), [Extend] grows a finished
    tenant, [Cancel] retires, [Results] returns the deterministic
    summary once finished ([Not_ready] before), [Shutdown] checkpoints
    everything. *)

val step : ?extra:Unix.file_descr list -> t -> timeout:float ->
  Unix.file_descr list
(** One event-loop turn; returns whichever [extra] descriptors are
    readable (the daemon passes its listening socket).
    @raise Dead_pool as documented above. *)

val drain : t -> unit
(** Step until no tenant is pending or active — the in-process
    equivalent of letting the daemon idle. *)

val tenants : t -> Tenant.t list
(** In submission order. *)

val find_name : t -> string -> Tenant.t option

val serve : ?log:(string -> unit) -> t -> socket:string -> unit
(** The daemon: listen on the Unix-domain socket, one request per
    connection, stepping the scheduler between accepts. Returns after
    [Shutdown] or SIGTERM/SIGINT, with every tenant checkpointed. An
    oversized request frame ({!Wire.Oversized}) is answered with a
    clean [Rejected] reply. *)
