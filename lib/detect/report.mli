(** Candidate functional interference reports: a test case whose
    receiver trace diverged, the diverging receiver call indices that
    survived filtering, and the masked diffs that showed it. A report
    holds no trace: the diffs carry both disagreeing subtrees, and the
    deterministic kernel re-derives any trace from the programs (and,
    for a concurrent report, a seed). *)

(** How the divergence was exposed: the paper's sequential
    sender-then-receiver order, or only under interleaved schedules —
    in which case the report carries every reproducing schedule seed,
    the schedule-independent fingerprint that deduplicated them, and
    the first seed's diffs before non-determinism masking. *)
type origin =
  | Sequential
  | Concurrent of {
      seeds : int list;
      fingerprint : int;
      raw_diffs : Kit_trace.Compare.diff list;
          (** unmasked: they keep what the interleaved run changed
              under nodes the mask hides, where concurrent attribution
              looks for a gained marker *)
    }

type t = {
  testcase : Kit_gen.Testcase.t;
  sender : Kit_abi.Program.t;
  receiver : Kit_abi.Program.t;
  interfered : int list;              (** receiver call indices *)
  diffs : Kit_trace.Compare.diff list;
    (** masked diffs: [left] from the interfered trace, [right] from
        the receiver's solo trace *)
  origin : origin;
}

val pp : Format.formatter -> t -> unit
