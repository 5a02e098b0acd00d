(** Deterministic cooperative scheduler over instrumented memory
    accesses.

    Tasks run as OCaml 5 effect-handled coroutines; [Ctx.yield] — fired
    by {!Var} immediately before every instrumented, non-irq access —
    suspends the running task. The driver picks the next task by a pure
    function of [(seed, step)], so a given seed always reproduces the
    byte-identical interleaving, across domains and processes alike. *)

type schedule =
  | Sequential
      (** always pick the lowest-indexed runnable task: with
          [[sender; receiver]] this runs the sender to completion and
          then the receiver, reproducing the sequential runner's phase
          A byte-for-byte *)
  | Seeded of int  (** pseudo-random but fully deterministic in the seed *)

exception Aborted
(** Raised into suspended tasks when a sibling task crashes, so their
    [Kfun.call] handlers (ctx stack pops) run. Never escapes {!run}. *)

val run : ?schedule:schedule -> Ctx.t -> (unit -> unit) list -> int
(** [run ~schedule ctx thunks] executes the thunks to completion as
    cooperatively scheduled tasks, installing the yield hook on [ctx]
    for the duration. Returns the number of scheduling decisions taken:
    one per yield point, one at the start and one after each task but
    the last finishes. Each decision picks a task by a pure, stable
    hash of [(seed, step)], or the lowest runnable one under
    [Sequential]. The hook decides in place and suspends the running
    task only when the decision picks another one; no decision
    allocates.
    If a task raises (kernel panic, fuel exhaustion), all other tasks
    are unwound via {!Aborted} and the original exception is re-raised
    — mirroring the sequential runner's crash behaviour. *)

val walk : schedule -> int array -> (int -> int -> unit) -> unit
(** [walk schedule counts f] replays the driver's decision procedure
    abstractly: task [i] has [counts.(i)] accesses, hence
    [counts.(i) + 1] resume segments. It calls [f task access_index]
    for every access in the merged order the schedule induces, and
    allocates nothing per step. {!run} and [walk] apply one decision
    rule, so the abstract replay matches the real driver decision for
    decision. This is exact whenever each task performs the same
    accesses as in its solo profile; schedule search builds its class
    keys on it to prune equivalent seeds before executing anything. *)
