(** Regeneration of the paper's evaluation tables (section 6) and of the
    three findings it states in prose: jump labels hide bugs #2 and #4
    from data-flow generation (section 6.1), a refined spec removes
    false positives without losing bugs (section 6.4), and the time
    namespace needs a bounds detector (section 7). Each function returns
    structured rows (consumed by tests) and a rendered table (printed by
    [kit tables] and recorded in EXPERIMENTS.md). *)

val table2 : Campaign.t -> Kit_kernel.Bugs.id list * string
(** Bugs found by the campaign, plus the rendered table: one row per
    Table 2 bug, numbered 1-9, with its actions, trace diff, resource
    and paper status. *)

val table3 :
  ?spec:Kit_spec.Spec.t -> ?reruns:int -> unit ->
  Known_bugs.outcome list * string

type strategy_row = {
  strategy : Kit_gen.Cluster.strategy;
  test_cases : int;
  bugs_found : Kit_kernel.Bugs.id list;
  executed : bool;
}

val table4 :
  Campaign.options ->
  strategy_row list * string * (Campaign.t * Campaign.t * Campaign.t * Campaign.t)
(** Runs DF-IA, DF-ST-1, DF-ST-2 and RAND (budget 1.3x DF-ST-2, the
    paper's proportion) over one profiling pass of [options]' corpus;
    also returns the four campaign results for reuse by the other
    tables. *)

val table5 : Campaign.t -> string

type agg_column = {
  column : string;                 (** "1".."9", "KD", "FP", "UI" *)
  reports : int;
  agg_rs_groups : int;
  agg_r_groups : int;
}

val table6 : Campaign.t -> agg_column list * string

val performance : Campaign.t -> string
(** The section 6.5 figures: profiling rate, clusters/flows, execution
    rate. *)

(** {2 Ablations} *)

val jump_label : Campaign.options -> strategy_row list * string
(** Section 6.1: [options] on kernel 5.13 with CONFIG_JUMP_LABEL, run as
    DF-IA and as RAND with four test cases per corpus program. *)

type report_class = {
  attribution : string;        (** {!Oracle.attribution_to_string} *)
  receiver : string;           (** receiver culprit signature *)
  default_reports : int;
  refined_reports : int;
}

val spec_refinement : Campaign.options -> report_class list * string
(** Section 6.4: [options] under {!Kit_spec.Spec.default} and under
    {!Kit_spec.Spec.refined}, reports counted per (attribution,
    receiver) class; bug classes first. *)

type bounds_row = {
  kernel : string;             (** ["5.13"] or ["fixed"] *)
  raw_diffs : int;
  masked_diffs : int;          (** what the standard pipeline reports *)
  violations : int;            (** what the bounds detector flags *)
}

val bounds : unit -> bounds_row list * string
(** Section 7: a sender that shifts the clock and a receiver that reads
    it, on 5.13 (where the shift crosses time namespaces) and on the
    fixed kernel. *)
