(** Human-readable rendering of a telemetry export ([kit stats]):
    aligned tables for counters, gauges and histograms, plus a span
    summary built by pairing begin/end events. *)

val stats : Export.parsed -> string
(** Leads with a telemetry header: registered-instrument cardinality,
    trace event count and ring-drop count — the numbers that say
    whether the telemetry itself is trustworthy. *)

val funnel : Export.parsed -> string
(** The attrition funnel ([kit stats --funnel]), rendered from the
    always-on ["campaign.attr_*"] counters: every generated data-flow
    case charged to exactly one terminal stage, with a balance line.
    Includes the schedule-search stream and the coverage-ledger summary
    when the export carries them. Degrades to an explanatory line when
    the export has no funnel accounting. *)
