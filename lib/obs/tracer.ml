(* The span tracer: nested begin/end phase spans and instant events in a
   ring buffer capped at a configurable size.

   Every event carries two timestamps: a deterministic one ([time],
   defaulting to the event sequence number, or the model kernel's
   virtual clock when the caller passes one) and a wall-clock one
   ([wall]). Deterministic exports use only the former, so a trace for a
   fixed seed is byte-stable across runs; wall times serve human
   timings. When the ring is full the oldest events are dropped and
   counted — a month-long campaign cannot grow the trace without
   bound. *)

type kind = Begin | End | Instant

type event = {
  seq : int;                        (* monotone event number *)
  time : int;                       (* deterministic timestamp *)
  kind : kind;
  name : string;
  attrs : (string * string) list;
  wall : float;                     (* Unix.gettimeofday at record time *)
}

type span = { sp_live : bool; sp_name : string; sp_attrs : (string * string) list }

type t = {
  mutable on : bool;
  cap : int;
  mutable buf : event option array;
  mutable next : int;               (* events ever recorded; seq source *)
}

let create ?(cap = 4096) ?(enabled = true) () =
  { on = enabled; cap = max 1 cap; buf = Array.make (max 1 cap) None; next = 0 }

(* A shared inert tracer (and dead span): recording through it is a
   single bool check, no allocation. *)
let nop = create ~cap:1 ~enabled:false ()
let dead_span = { sp_live = false; sp_name = ""; sp_attrs = [] }

let record t kind ?time ?wall ~attrs name =
  let time = match time with Some v -> v | None -> t.next in
  let wall = match wall with Some w -> w | None -> Unix.gettimeofday () in
  let e = { seq = t.next; time; kind; name; attrs; wall } in
  t.buf.(t.next mod t.cap) <- Some e;
  t.next <- t.next + 1

let instant t ?(attrs = []) ?time ?wall name =
  if t.on then record t Instant ?time ?wall ~attrs name

let span t ?(attrs = []) ?time ?wall name =
  if not t.on then dead_span
  else begin
    record t Begin ?time ?wall ~attrs name;
    { sp_live = true; sp_name = name; sp_attrs = attrs }
  end

let finish t ?time ?wall sp =
  if sp.sp_live && t.on then
    record t End ?time ?wall ~attrs:sp.sp_attrs sp.sp_name

let with_span t ?attrs ?time name f =
  let sp = span t ?attrs ?time name in
  Fun.protect ~finally:(fun () -> finish t ?time sp) f

let recorded t = t.next
let dropped t = max 0 (t.next - t.cap)

let events t =
  let first = dropped t in
  List.init (t.next - first) (fun i ->
      match t.buf.((first + i) mod t.cap) with
      | Some e -> e
      | None -> assert false)

(* Interleave per-domain event rings into one deterministic stream: a
   k-way merge that repeatedly takes the ring whose HEAD event has the
   smallest (time, ring index). Comparing heads only — never sorting
   globally — preserves each ring's internal order unconditionally,
   which matters because deterministic times are not monotone within a
   ring (virtual-clock spans rewind when an environment restores a
   snapshot); a global sort would tear such a ring's Begin/End nesting
   apart. *)
let interleave rings =
  let rings = Array.of_list rings in
  let pick () =
    let best = ref None in
    Array.iteri
      (fun i r ->
        match r with
        | [] -> ()
        | e :: _ -> (
          match !best with
          | Some (j, (h : event))
            when not (e.time < h.time || (e.time = h.time && i < j)) ->
            ()
          | _ -> best := Some (i, e)))
      rings;
    !best
  in
  let rec go acc =
    match pick () with
    | None -> List.rev acc
    | Some (i, e) ->
      rings.(i) <- List.tl rings.(i);
      go (e :: acc)
  in
  go []

(* The tracer counterpart of Metrics.absorb: fold per-domain rings into
   [t], re-recording each event with a fresh sequence number but its
   original deterministic and wall timestamps. Recording through a
   disabled tracer is still a no-op. *)
let merge t rings =
  if t.on then
    List.iter
      (fun e -> record t e.kind ~time:e.time ~wall:e.wall ~attrs:e.attrs e.name)
      (interleave rings)

let kind_to_string = function
  | Begin -> "begin"
  | End -> "end"
  | Instant -> "instant"

let kind_of_string = function
  | "begin" -> Some Begin
  | "end" -> Some End
  | "instant" -> Some Instant
  | _ -> None
