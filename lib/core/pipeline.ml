(* Typed pipeline stages. A stage is a named transformation from one
   artifact to another; running it through a bundle instruments the call
   with a "phase.<name>" span (annotated with the artifact labels), a
   volatile "time.<name>_s" wall-clock gauge and an always-on
   "pipeline.<name>_runs" counter. Campaign drives its front end,
   execute and diagnose phases through these stages, so batch and
   streaming campaigns share one observability vocabulary. *)

module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer

type ('a, 'b) stage = {
  name : string;
  consumes : string;                   (* input artifact label *)
  produces : string;                   (* output artifact label *)
  f : Obs.t -> 'a -> 'b;
}

let v ?(consumes = "") ?(produces = "") name f =
  { name; consumes; produces; f }

let stage_attrs s attrs =
  let artifact label value acc =
    if String.equal value "" then acc else (label, value) :: acc
  in
  artifact "consumes" s.consumes (artifact "produces" s.produces attrs)

(* Phase wall times live in the registry as volatile gauges (excluded
   from deterministic snapshots) and are always-on: they are campaign
   accounting, so readers stay populated through a disabled bundle. *)
let time_gauge obs name =
  Metrics.gauge ~volatile:true ~always:true obs.Obs.metrics
    ("time." ^ name ^ "_s")

let runs_counter obs name =
  Metrics.counter ~always:true obs.Obs.metrics ("pipeline." ^ name ^ "_runs")

(* Run a stage: span + cumulative time gauge + run counter. [elapsed_base]
   seeds the gauge for a stage whose work did not all run in this call:
   a stream's fold, which runs once per growth step, and its execute
   phase, whose eager executions ran during the fold.

   Wall-clock timing (stages include supervisor backoff and, in a real
   deployment, I/O waits, which CPU time would hide). The span is
   stamped with the same gettimeofday readings the gauge is computed
   from, so a profile over the trace reports exactly the exported
   time.<stage>_s value — the two views of a phase can be cross-checked
   for equality, not just proximity. *)
let run_timed ?(attrs = []) ?(elapsed_base = 0.0) obs stage x =
  let tracer = obs.Obs.tracer in
  let t0 = Unix.gettimeofday () in
  let sp =
    Tracer.span tracer ~attrs:(stage_attrs stage attrs) ~wall:t0
      ("phase." ^ stage.name)
  in
  match stage.f obs x with
  | y ->
    let t1 = Unix.gettimeofday () in
    Tracer.finish tracer ~wall:t1 sp;
    let dt = t1 -. t0 in
    Metrics.inc (runs_counter obs stage.name);
    Metrics.set_gauge (time_gauge obs stage.name) (elapsed_base +. dt);
    (y, dt)
  | exception e ->
    Tracer.finish tracer ~wall:(Unix.gettimeofday ()) sp;
    raise e

let run ?attrs obs stage x = fst (run_timed ?attrs obs stage x)
