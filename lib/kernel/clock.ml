(* Virtual kernel time. The clock advances by a fixed tick per syscall,
   from a per-execution base offset set by the execution environment;
   re-running a receiver program with different base offsets is how KIT
   exposes timing-dependent (non-deterministic) syscall results (paper,
   section 4.3.2).

   [jiffies] is an instrumented kernel variable but is only touched from
   interrupt context, so — like in the paper — its accesses never appear
   in profiles thanks to the in_task() filter. *)

let fn_timer_interrupt = Kfun.register "timer_interrupt"

type t = {
  base : int Var.t;                 (* per-execution boot offset *)
  ticks : int Var.t;                (* syscalls executed since snapshot *)
  jiffies : int Var.t;
}

let tick_quantum = 16

let init heap =
  {
    base = Var.alloc heap ~name:"clock.base" ~instrumented:false 1_000_000;
    ticks = Var.alloc heap ~name:"clock.ticks" ~instrumented:false 0;
    jiffies = Var.alloc heap ~name:"clock.jiffies" 0;
  }

(* Current kernel time; reading it is not a traced memory access (the
   clock is not a namespace-relevant shared variable, and real reads go
   through vDSO paths the paper does not instrument). *)
let now t = Var.peek t.base + (Var.peek t.ticks * tick_quantum)

(* Advance time by one syscall quantum; the timer interrupt touches
   jiffies from irq context. *)
let tick ctx t =
  Var.poke t.ticks (Var.peek t.ticks + 1);
  Ctx.with_irq ctx (fun () ->
      Kfun.call ctx fn_timer_interrupt (fun () ->
          Var.write ctx t.jiffies (Var.read ctx t.jiffies + 1)))

(* Host-side control: set the boot offset for this execution. *)
let set_base t base = Var.poke t.base base
let base t = Var.peek t.base
