(* The observability bundle: one metrics registry plus one span tracer,
   threaded through the pipeline (runner, supervisor, campaign, pool,
   CLI). [nop] is the shared disabled bundle — instrumented code records
   through it at the cost of a bool check, and always-on accounting
   counters (see Metrics) still count. *)

(* Re-export: the coverage ledger is part of the observability plane
   (callers reach it as [Obs.Coverage] next to [Obs.snapshot] etc.). *)
module Coverage = Coverage

type t = {
  metrics : Metrics.registry;
  tracer : Tracer.t;
}

let create ?registry ?tracer () =
  let metrics =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  let tracer = match tracer with Some t -> t | None -> Tracer.create () in
  { metrics; tracer }

let nop = { metrics = Metrics.create ~enabled:false (); tracer = Tracer.nop }

let snapshot ?volatile t = Metrics.snapshot ?volatile t.metrics

let export_lines ?(wall = false) ?meta t =
  Export.lines ~wall ?meta
    ~events:(Tracer.events t.tracer)
    ~dropped:(Tracer.dropped t.tracer)
    (Metrics.snapshot ~volatile:wall t.metrics)
