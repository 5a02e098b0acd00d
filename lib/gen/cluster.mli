(** Test case generation and clustering strategies (paper, sections
    4.1.2 and 6.3):

    - [Df]: every (write site, read site) pair on a shared address — the
      unclustered universe, counted but not executed;
    - [Df_ia]: clusters data flows by (write instruction, read
      instruction);
    - [Df_st k]: additionally by the call-stack context, truncated to
      the [k] frames above the instrumentation site;
    - [Rand n]: [n] random sender/receiver pairs — the baseline.

    One representative test case per cluster is executed; the
    representative is the minimum candidate under the total
    {!Testcase.compare} order, so runs are reproducible.

    Campaigns cluster online: {!start}/{!feed}/{!finalize} fold one
    profiled program at a time into the cluster table, emitting
    newly-sealed and representative-changed clusters as they go.
    {!finalize} names the representatives a campaign result is folded
    over. The batch {!run} over a fully built access map is the
    reference model that tests and the benchmark's replay compare
    {!finalize} against (property-tested equal). *)

type strategy =
  | Df
  | Df_ia
  | Df_st of int
  | Rand of int

val strategy_name : strategy -> string

type result = {
  strategy : strategy;
  generated : int;        (** the Table 4 "test cases" figure *)
  clusters : int;
  reps : Testcase.t list; (** executed representatives, in order *)
  df_total : int;
  (** the unclustered flow universe (the DF row): one per (write entry,
      read entry) pair on a shared address *)
  sizes : (int * int) list;
  (** cluster-size distribution as [(size, count)] pairs, ascending *)
  requested : int;        (** representatives asked for (RAND budget) *)
  delivered : int;
  (** representatives actually produced; for [Rand n] the budget is
      clamped to the [corpus_size²] distinct pairs and then filled
      exactly, so [delivered = min n corpus_size²] *)
}

val keyed : strategy -> bool
(** [Df_ia] and [Df_st _] cluster by per-side keys and need a cluster
    table; [Df] and [Rand _] do not. *)

val unclustered : ?seed:int -> corpus_size:int -> df_total:int -> strategy -> result
(** The result of a strategy that needs no cluster table, from the flow
    universe and the corpus size alone: [Df] counts [df_total] flows,
    [Rand n] draws [n] pairs over [corpus_size] programs with [seed].
    @raise Invalid_argument on a keyed strategy. *)

val run :
  strategy -> ?seed:int -> corpus_size:int -> Kit_profile.Accessmap.t ->
  result
(** Batch clustering over a fully built access map: the reference model
    {!finalize} is checked against. No campaign calls it. *)

(** {2 Online clustering}

    Every campaign folds one profiled program at a time into the cluster
    table with {!feed}, maintaining [df_total] incrementally instead of
    materializing per-address writer×reader cross products behind a
    barrier. Events report clusters the caller can execute
    immediately. *)

type state

(** Incremental cluster-table changes emitted by {!feed}. Cluster ids
    are stable for the lifetime of the state. RAND and DF emit none:
    RAND pairs are drawn over the final corpus size, in {!finalize}. *)
type event =
  | Sealed of int * Testcase.t
      (** a new cluster appeared, with its representative *)
  | Rep_changed of int * Testcase.t
      (** a later program produced a smaller representative; a result
          executed for the old one is stale *)

val start : ?seed:int -> strategy -> state

val feed : state -> prog:int -> Kit_profile.Stackrec.access list -> event list
(** Fold program [prog]'s filtered accesses (from
    {!Kit_gen.Dataflow.profile_program_full}) into the table. Programs must
    be fed in corpus order — the equivalence with {!run} depends on it —
    or the call raises [Invalid_argument]. *)

val finalize : state -> result
(** The clustering result over everything fed so far — structurally
    identical to {!run} on a batch-built map of the same programs
    (property-tested). Cluster sizes are folded here, once over every
    address's group pairs, rather than kept by delta on every feed.
    Non-destructive: the state can keep feeding. *)

val fed : state -> int
(** Programs folded so far. *)

val peak_feed_pairs : state -> int
(** The largest per-feed working set: the most candidate group pairs
    one program's feed visited. A feed visits only the pairs a new group
    creates, so this stays far below the batch pass's [df_total]-sized
    sweep. *)
