(* Deterministic cooperative scheduler over the kernel's instrumented
   memory accesses.

   Tasks (a sender program, a receiver program) run as effect-handled
   coroutines: [Ctx.yield] — fired by [Var.trace] immediately before
   every instrumented, non-irq access — is a scheduling decision. A
   task with K profiled accesses therefore executes as K+1 resume
   segments: segment 0 runs from the start to just before the first
   access, and segment r (1 <= r <= K) performs access r and runs to
   just before access r+1 (or to completion when r = K).

   The next task is a pure function of (seed, step): no wall clock, no
   Random state, so the same seed always produces the byte-identical
   interleaving. [Sequential] always picks the lowest-indexed runnable
   task, which for [sender; receiver] runs the sender to completion and
   then the receiver — reproducing the sequential runner's phase A
   byte-for-byte (no kernel state is touched between two segments of
   the same task).

   The yield hook decides in place: every yield point takes one
   decision (one step), and the task performs the [Yield] effect,
   returning control to the driver, only when the decision picks
   another task. A decision that keeps the running task costs a hash
   and no context switch. The decisions, their count and the
   interleaving are exactly those of a driver that suspends at every
   yield point and decides afterwards. The driver itself decides only
   at the start and when a task finishes.

   [walk] replays the same decision procedure abstractly over per-task
   access counts, visiting the merged access order a seed induces
   without executing or allocating anything. The runner's partial-order
   reduction builds its class keys on [walk]: two seeds whose merged
   orders agree on all conflicting accesses are equivalent, so only one
   representative runs. Driver and walk share [pick] and the step
   discipline, so the abstraction can only diverge from reality if
   interference itself changes a task's access count. *)

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

type schedule = Sequential | Seeded of int

exception Aborted

(* splitmix-style integer mix; pure and 63-bit safe. *)
let mix ~seed ~step =
  let z = (seed * 0x9E3779B9) + (step * 0x85EBCA6B) + 0x165667B1 in
  let z = z lxor (z lsr 15) in
  let z = z * 0xC2B2AE35 in
  let z = z lxor (z lsr 13) in
  z land max_int

(* The one decision rule: the position, within an ascending runnable
   set of [m >= 1] tasks, of the task that runs at [step]. *)
let pick schedule ~step m =
  if m = 1 then 0
  else
    match schedule with
    | Sequential -> 0
    | Seeded seed -> mix ~seed ~step mod m

(* Runnable sets are the ascending prefix [live.(0 .. n-1)] of an array
   allocated once per run, so a decision never allocates. [drop] removes
   a finished task and returns the new length. *)
let drop live n task =
  let j = ref 0 in
  while live.(!j) <> task do
    incr j
  done;
  Array.blit live (!j + 1) live !j (n - !j - 1);
  n - 1

type task =
  | Not_started of (unit -> unit)
  | Ready of (unit, unit) continuation
  | Done

let run ?(schedule = Sequential) ctx thunks =
  let tasks = Array.of_list (List.map (fun f -> Not_started f) thunks) in
  let n = Array.length tasks in
  let live = Array.init n Fun.id in
  let nlive = ref n in
  let current = ref 0 in
  let next = ref (-1) in                 (* a switch the hook decided *)
  let steps = ref 0 in
  let decide () =
    let i = live.(pick schedule ~step:!steps !nlive) in
    incr steps;
    i
  in
  let finish () =
    tasks.(!current) <- Done;
    nlive := drop live !nlive !current
  in
  let handler =
    {
      retc = finish;
      exnc =
        (fun e ->
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some (fun (k : (a, unit) continuation) -> tasks.(!current) <- Ready k)
          | _ -> None);
    }
  in
  (* A crash in one task (kernel panic, fuel exhaustion) must unwind the
     other tasks' stacks too: their [Kfun.call] handlers restore the
     shared ctx stack. [discontinue] raises [Aborted] at each suspension
     point; the per-task handler marks the task [Done] and re-raises,
     and we swallow the expected [Aborted] here. *)
  let abort e =
    Array.iteri
      (fun i st ->
        match st with
        | Ready k -> (
          current := i;
          try discontinue k Aborted with Aborted -> ())
        | Not_started _ -> tasks.(i) <- Done
        | Done -> ())
      tasks;
    raise e
  in
  (* Every yield point is a decision; the task suspends only when the
     decision hands the CPU to another task. *)
  let hook () =
    let i = decide () in
    if i <> !current then begin
      next := i;
      perform Yield
    end
  in
  let saved = ctx.Ctx.yield in
  ctx.Ctx.yield <- Some hook;
  Fun.protect
    ~finally:(fun () -> ctx.Ctx.yield <- saved)
    (fun () ->
      while !nlive > 0 do
        let i = if !next >= 0 then !next else decide () in
        next := -1;
        current := i;
        match tasks.(i) with
        | Not_started f -> ( try match_with f () handler with e -> abort e)
        | Ready k -> ( try continue k () with e -> abort e)
        | Done -> assert false
      done);
  !steps

let walk schedule counts f =
  let n = Array.length counts in
  let live = Array.init n Fun.id in
  let picks = Array.make n 0 in
  let nlive = ref n in
  let step = ref 0 in
  while !nlive > 0 do
    let i = live.(pick schedule ~step:!step !nlive) in
    incr step;
    let k = picks.(i) in
    if k > 0 then f i (k - 1);
    picks.(i) <- k + 1;
    if k = counts.(i) then nlive := drop live !nlive i
  done
