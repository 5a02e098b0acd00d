(* The tracing context threaded through every kernel operation. It holds
   the live call stack (maintained by [Kfun.call]), the optional profiling
   sink receiving execution-trace events, and the interrupt-context flag:
   memory accesses made while [in_irq] are not reported, mirroring the
   paper's in_task() filter (section 5.1). *)

type t = {
  mutable sink : (Kevent.t -> unit) option;
  mutable stack : int list;            (* function ids, innermost first *)
  mutable in_irq : bool;
  mutable yield : (unit -> unit) option;
}

let create () = { sink = None; stack = []; in_irq = false; yield = None }

let emit t ev =
  match t.sink with
  | None -> ()
  | Some f -> if not t.in_irq then f ev

let tracing t = match t.sink with None -> false | Some _ -> not t.in_irq

let with_sink t sink f =
  let saved = t.sink in
  t.sink <- Some sink;
  Fun.protect ~finally:(fun () -> t.sink <- saved) f

let yield t =
  match t.yield with
  | None -> ()
  | Some f -> if not t.in_irq then f ()

let with_irq t f =
  let saved = t.in_irq in
  t.in_irq <- true;
  Fun.protect ~finally:(fun () -> t.in_irq <- saved) f

let innermost t = match t.stack with [] -> 0 | f :: _ -> f

let caller t = match t.stack with _ :: c :: _ -> c | [ _ ] | [] -> 0
