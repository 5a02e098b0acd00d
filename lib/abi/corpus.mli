(** Corpus generation.

    The paper seeds KIT with a Syzkaller-generated corpus of test
    programs; here a seeded generator plays that role, combining curated
    per-subsystem seed templates (the equivalent of a fuzzer having
    discovered interesting syscall idioms) with random composition and
    mutation. Fully deterministic for a given seed. *)

val generate : seed:int -> size:int -> Program.t list
(** [generate ~seed ~size] returns [size] programs: the seeds verbatim
    (when they fit) followed by a deterministic mix of mutated seeds,
    seed compositions and random programs, none longer than 8 calls. *)
