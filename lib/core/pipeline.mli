(** Typed pipeline stages.

    A stage is a named transformation from one artifact to another.
    Running a stage through an observability bundle wraps the call in a
    ["phase.<name>"] span (annotated with the declared artifact labels),
    sets the volatile ["time.<name>_s"] wall-clock gauge and bumps the
    always-on ["pipeline.<name>_runs"] counter — {!Campaign} drives its
    front end, execute and diagnose phases through stages, so batch and
    streaming campaigns share one observability vocabulary. *)

type ('a, 'b) stage

val v :
  ?consumes:string -> ?produces:string -> string -> (Kit_obs.Obs.t -> 'a -> 'b) ->
  ('a, 'b) stage
(** [v name f] declares a stage. [consumes]/[produces] label the input
    and output artifacts (e.g. ["corpus"] → ["clusters"]); they appear
    as span attributes. *)

val run : ?attrs:(string * string) list -> Kit_obs.Obs.t -> ('a, 'b) stage -> 'a -> 'b
(** Run the stage under its span, timing gauge and run counter. *)

val run_timed :
  ?attrs:(string * string) list -> ?elapsed_base:float -> Kit_obs.Obs.t ->
  ('a, 'b) stage -> 'a -> 'b * float
(** Like {!run}, also returning this call's wall-clock seconds.
    [elapsed_base] (default 0) seeds the time gauge, for a stage whose
    work did not all run in this call (a stream's growth steps, or its
    eager executions): the gauge reads [elapsed_base +. dt]. *)
