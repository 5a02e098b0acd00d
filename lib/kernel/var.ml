(* Traced kernel shared variables. Reads and writes go through the
   tracing context and emit memory-access events carrying the variable's
   synthetic address, the access width and a synthetic instruction
   address. Variables can be allocated uninstrumented to model code the
   compiler pass cannot see: jump-label code patching (paper bug #2),
   or subsystems excluded from instrumentation (scheduler, mm). *)

type 'a t = {
  addr : int;
  width : int;
  name : string;
  instrumented : bool;
  heap : Heap.t;
  cell : int;                       (* id for Heap.mark_dirty *)
  mutable v : 'a;
}

let alloc heap ~name ?(width = 8) ?(instrumented = true) init =
  let cell = ref None in
  let addr, cell_id =
    Heap.register heap ~name ~width ~instrumented (fun () ->
        match !cell with
        | None -> fun () -> ()
        | Some var ->
          let saved = var.v in
          fun () -> var.v <- saved)
  in
  let var = { addr; width; name; instrumented; heap; cell = cell_id; v = init } in
  cell := Some var;
  var

(* Instrumented accesses are also the scheduler's preemption points:
   [Ctx.yield] fires before the event is emitted, so a suspended task
   resumes exactly at the access it was about to perform. Keeping yield
   behind the same [instrumented] guard (and [Ctx.yield]'s in_irq guard)
   means the set of yield points equals the set of profiled accesses.
   The event is built only when a sink will receive it: test execution
   runs without one and allocates nothing here. *)
let trace ctx t rw =
  if t.instrumented then begin
    Ctx.yield ctx;
    if Ctx.tracing ctx then begin
      let fn = Ctx.innermost ctx in
      let caller = Ctx.caller ctx in
      let ip = Kevent.ip_of ~fn ~caller ~addr:t.addr ~rw in
      Ctx.emit ctx (Kevent.Mem { addr = t.addr; width = t.width; rw; ip })
    end
  end

let read ctx t =
  trace ctx t Kevent.Read;
  t.v

let write ctx t v =
  trace ctx t Kevent.Write;
  Heap.mark_dirty t.heap t.cell;
  t.v <- v

(* Untraced accessors, for boot-time initialisation, the test harness and
   the execution environment (e.g. setting the per-execution clock base,
   which models the host side of the VM, not kernel code). *)
let peek t = t.v

let poke t v =
  Heap.mark_dirty t.heap t.cell;
  t.v <- v
