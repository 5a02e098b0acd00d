(* Candidate functional interference reports: a test case whose receiver
   trace diverged, the diverging receiver call indices that survived
   filtering, and the masked diffs that showed it. No trace is kept:
   each diff holds both disagreeing subtrees, and the deterministic
   kernel re-derives any trace from the programs (and a seed). *)

module Program = Kit_abi.Program
module Compare = Kit_trace.Compare

(* How the divergence was exposed. [Sequential] is the paper's
   sender-then-receiver order; [Concurrent] means no sequential order
   shows it — only interleaved schedules do, and the report carries
   every reproducing schedule seed (deduplicated across seeds by the
   schedule-independent diff fingerprint) so any of them replays the
   finding deterministically, and the first seed's unmasked diffs:
   masking halts the comparison at non-deterministic nodes, and a leaf
   the interleaved run gained can sit below one. *)
type origin =
  | Sequential
  | Concurrent of {
      seeds : int list;
      fingerprint : int;
      raw_diffs : Compare.diff list;
    }

type t = {
  testcase : Kit_gen.Testcase.t;
  sender : Program.t;
  receiver : Program.t;
  interfered : int list;              (* receiver call indices *)
  diffs : Compare.diff list;        (* masked: interfered vs solo *)
  origin : origin;
}

let pp_origin ppf = function
  | Sequential -> ()
  | Concurrent { seeds; fingerprint; _ } ->
    Fmt.pf ppf " concurrent fp=%x seeds=[%a]" fingerprint
      (Fmt.list ~sep:(Fmt.any ",") Fmt.int)
      seeds

let pp ppf t =
  Fmt.pf ppf "@[<v 2>report %a interfered=[%a]%a@,%a@]" Kit_gen.Testcase.pp
    t.testcase
    (Fmt.list ~sep:(Fmt.any ",") Fmt.int)
    t.interfered pp_origin t.origin
    (Fmt.list ~sep:Fmt.cut Compare.pp_diff)
    t.diffs
