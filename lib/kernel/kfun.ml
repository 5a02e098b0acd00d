(* Kernel function registry and call-site instrumentation. Every model
   kernel function is registered once (at module initialisation) and gets
   a unique function id; [call] brackets its execution with function
   entry/exit events and maintains the context's simulated call stack,
   exactly the information the paper's compiler pass emits (section 5.1).

   Functions are assumed to return exactly once; [call] restores the
   stack even on exceptions, matching the paper's noreturn exclusion. *)

let names : (int, string) Hashtbl.t = Hashtbl.create 64
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let next = ref 1

let register name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = !next in
    incr next;
    Hashtbl.add ids name id;
    Hashtbl.add names id name;
    id

let name id =
  match Hashtbl.find_opt names id with
  | Some n -> n
  | None -> Printf.sprintf "f%d" id

(* Events are built only when a sink will receive them. The stack is
   popped on return and on exceptions, which are re-raised with their
   backtrace — including the [Sched.Aborted] that unwinds a suspended
   task. *)
let pop ctx fn =
  (match ctx.Ctx.stack with
  | _ :: rest -> ctx.Ctx.stack <- rest
  | [] -> ());
  if Ctx.tracing ctx then Ctx.emit ctx (Kevent.Fn_exit fn)

let call ctx fn f =
  if Ctx.tracing ctx then Ctx.emit ctx (Kevent.Fn_enter fn);
  ctx.Ctx.stack <- fn :: ctx.Ctx.stack;
  match f () with
  | v ->
    pop ctx fn;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    pop ctx fn;
    Printexc.raise_with_backtrace e bt
