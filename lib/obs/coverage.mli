(** The campaign-scoped coverage ledger: one compact state machine per
    spec-listed namespace-protected shared variable,

    {v untouched → touched → written → read → paired → attributed v}

    where [paired] means an overlapping (write, read) pair was observed
    on the variable and [attributed] means an interference report's data
    flow landed on it. Backed by packed bitsets over the variable
    universe, so marking is O(1).

    A campaign rebuilds its ledger from scratch: profiling marks the
    lower rungs and the per-case result fold marks attribution, so the
    same case results give the same ledger whatever schedule, process
    count or resumed log produced them. *)

type t

val create : (string * int) list -> t
(** [create vars] — the universe, as [(name, base_addr)] pairs in a
    deterministic (registration) order. Everything starts untouched. *)

(** {2 Marking}

    All marks are idempotent and ignore addresses outside the universe
    (infrastructure variables, unprotected subsystems). Higher rungs
    imply the lower ones: marking written/read/attributed also marks
    touched, and attribution implies the overlapping pair. *)

val mark_touched : t -> addr:int -> unit
(** Any profiled access (even a reader-filtered one) landed on the
    variable. *)

val mark_written : t -> addr:int -> unit
(** The variable is in the access map's writer universe. *)

val mark_read : t -> addr:int -> unit
(** The variable is in the access map's (spec-filtered) reader
    universe. *)

val mark_attributed : t -> addr:int -> unit
(** An interference report's data flow was attributed to the
    variable. *)

(** {2 Summaries} *)

type summary = {
  sum_vars : int;
  sum_touched : int;
  sum_written : int;
  sum_read : int;
  sum_paired : int;                 (** overlapping (write, read) pair *)
  sum_attributed : int;
  sum_gaps : int;                   (** vars with no overlapping pair *)
}

val summary : t -> summary

(** {2 Rendering} *)

val jsonl_lines : t -> string list
(** The deterministic JSONL export: one ["covsum"] summary line, then
    one ["cov"] line per variable in universe order, with its current
    rung (["untouched"] … ["attributed"], the highest it reached, with
    precedence attributed > paired > read > written > touched).
    Byte-stable for a given ledger state — domain/proc/checkpoint
    schedules that mark the same facts export identical bytes. *)

val render : t -> string
(** Human-readable: the summary, a per-state table and the gap list —
    the variables with no overlapping (write, read) pair, in universe
    order, the seed list feedback-driven generation will consume. *)
