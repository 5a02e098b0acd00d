(* Regeneration of the paper's evaluation tables (section 6) and of the
   three findings it states in prose (sections 6.1, 6.4 and 7). Each
   function returns both structured rows (consumed by tests) and a
   rendered table (printed by [kit tables] and recorded in
   EXPERIMENTS.md). *)

module Bugs = Kit_kernel.Bugs
module Config = Kit_kernel.Config
module Cluster = Kit_gen.Cluster
module Aggregate = Kit_report.Aggregate
module Spec = Kit_spec.Spec
module Env = Kit_exec.Env
module Runner = Kit_exec.Runner
module Syzlang = Kit_abi.Syzlang

let buf_table header rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf row;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* --- Table 2: new functional interference bugs ------------------------ *)

type bug_row = {
  bug : Bugs.id;
  number : int;
  sender_action : string;
  receiver_action : string;
  trace_diff : string;
  resource : string;
  paper_status : string;
}

let table2_rows =
  [
    { bug = Bugs.B1_ptype_leak; number = 1;
      sender_action = "Create a packet socket";
      receiver_action = "Read /proc/net/ptype";
      trace_diff = "Show the ptype from Cs"; resource = "ptype";
      paper_status = "Fixed" };
    { bug = Bugs.B2_flowlabel_send; number = 2;
      sender_action = "Create an exclusive flow label";
      receiver_action = "Transmit data with an unregistered flow label";
      trace_diff = "Transmission fails"; resource = "IPv6 / flow label";
      paper_status = "Fixed" };
    { bug = Bugs.B3_rds_bind; number = 3;
      sender_action = "Bind an RDS socket";
      receiver_action = "Bind an RDS socket"; trace_diff = "Binding fails";
      resource = "RDS / address"; paper_status = "Confirmed" };
    { bug = Bugs.B4_flowlabel_connect; number = 4;
      sender_action = "Create an exclusive flow label";
      receiver_action = "Connect with an unregistered flow label";
      trace_diff = "Connection fails"; resource = "IPv6 / flow label";
      paper_status = "Fixed" };
    { bug = Bugs.B5_sockstat_tcp; number = 5;
      sender_action = "Create a TCP socket";
      receiver_action = "Read /proc/net/sockstat";
      trace_diff = "Counter in file increases"; resource = "proto / socket";
      paper_status = "Confirmed" };
    { bug = Bugs.B6_cookie; number = 6;
      sender_action = "Generate a socket cookie";
      receiver_action = "Generate a socket cookie";
      trace_diff = "Cookie changes"; resource = "socket / cookie";
      paper_status = "Known" };
    { bug = Bugs.B7_sctp_assoc; number = 7;
      sender_action = "Request an association ID";
      receiver_action = "Request an association ID";
      trace_diff = "Association ID changes"; resource = "SCTP / assoc_id";
      paper_status = "Known" };
    { bug = Bugs.B8_protomem_sockstat; number = 8;
      sender_action = "Allocate protocol memory";
      receiver_action = "Read /proc/net/sockstat";
      trace_diff = "Counter in file increases"; resource = "proto / memory";
      paper_status = "Confirmed" };
    { bug = Bugs.B9_protomem_protocols; number = 9;
      sender_action = "Allocate protocol memory";
      receiver_action = "Read /proc/net/protocols";
      trace_diff = "Counter in file increases"; resource = "proto / memory";
      paper_status = "Confirmed" };
  ]

let table2 (campaign : Campaign.t) =
  let found = Oracle.new_bugs_found campaign.Campaign.keyed in
  let is_found b = List.exists (Bugs.equal b) found in
  let rows =
    List.map
      (fun r ->
        Printf.sprintf "%-2d %-33s %-48s %-26s %-18s %-9s %s" r.number
          r.sender_action r.receiver_action r.trace_diff r.resource
          r.paper_status
          (if is_found r.bug then "FOUND" else "missed"))
      table2_rows
  in
  ( found,
    buf_table
      "ID Cs action                         Cr action                                        \
       Cr trace diff              Resource           Status    Reproduced"
      rows )

(* --- Table 3: known bugs ---------------------------------------------- *)

let table3 ?spec ?reruns () =
  let outcomes = Known_bugs.reproduce_all ?spec ?reruns () in
  let rows =
    List.map
      (fun (o : Known_bugs.outcome) ->
        Printf.sprintf "%-2s %-28s %-6s %-5s detected=%-5b expected=%-5b %s"
          o.Known_bugs.case.Known_bugs.label
          (Bugs.to_string o.Known_bugs.case.Known_bugs.bug)
          o.Known_bugs.case.Known_bugs.kernel
          o.Known_bugs.case.Known_bugs.namespace o.Known_bugs.detected
          o.Known_bugs.case.Known_bugs.expect_detected
          (if o.Known_bugs.as_expected then "OK" else "MISMATCH"))
      outcomes
  in
  ( outcomes,
    buf_table "ID Bug                          Kernel NS    Result" rows )

(* --- Table 4: generation / clustering strategies ---------------------- *)

type strategy_row = {
  strategy : Cluster.strategy;
  test_cases : int;
  bugs_found : Bugs.id list;
  executed : bool;
}

let row_of (c : Campaign.t) =
  { strategy = c.Campaign.generation.Cluster.strategy;
    test_cases = c.Campaign.generation.Cluster.generated;
    bugs_found = Oracle.new_bugs_found c.Campaign.keyed; executed = true }

let render_effectiveness r =
  if r.executed then Printf.sprintf "%d/9" (List.length r.bugs_found) else "-"

(* One profiling pass feeds the three keyed strategies' tables. RAND's
   budget follows the paper's proportions: it executed ~1.3x the DF-ST-2
   test case count and still found fewer bugs. *)
let table4 options =
  let prepared =
    Campaign.prepare
      ~strategies:[ Cluster.Df_ia; Cluster.Df_st 1; Cluster.Df_st 2 ]
      options
  in
  let run strategy = Campaign.execute_prepared ~strategy prepared in
  let df_ia = run Cluster.Df_ia in
  let df_st1 = run (Cluster.Df_st 1) in
  let df_st2 = run (Cluster.Df_st 2) in
  let rand_budget =
    max 32 (df_st2.Campaign.generation.Cluster.clusters * 13 / 10)
  in
  let rand = run (Cluster.Rand rand_budget) in
  let df_total = df_ia.Campaign.df_total in
  let rows_data =
    [ row_of df_ia; row_of df_st1; row_of df_st2; row_of rand;
      { strategy = Cluster.Df; test_cases = df_total; bugs_found = [];
        executed = false } ]
  in
  let rows =
    List.map
      (fun r ->
        Printf.sprintf "%-9s %8d %s"
          (Cluster.strategy_name r.strategy)
          r.test_cases (render_effectiveness r))
      rows_data
  in
  ( rows_data,
    buf_table "Gen       Test cases Effectiveness" rows,
    (df_ia, df_st1, df_st2, rand) )

(* --- Table 5: report filtering ---------------------------------------- *)

let table5 (campaign : Campaign.t) =
  let f = campaign.Campaign.funnel in
  Fmt.str "%a" Kit_detect.Filter.pp_funnel f

(* --- Table 6: report aggregation -------------------------------------- *)

type agg_column = {
  column : string;                 (* "1".."9", "FP", "UI" *)
  reports : int;
  agg_rs_groups : int;
  agg_r_groups : int;
}

(* Reports attributed to a *known* bug still present in the tested
   release (bug D of Table 3 lives in 5.13) get their own column — the
   paper's Table 6 only tabulates the nine new bugs. *)
let column_of_attribution = function
  | Oracle.Bug b -> (
    let rec index i = function
      | [] -> None
      | x :: rest -> if Bugs.equal x b then Some (i + 1) else index (i + 1) rest
    in
    match index 0 Bugs.new_bugs with
    | Some n -> Some (string_of_int n)
    | None -> Some "KD")
  | Oracle.False_positive _ -> Some "FP"
  | Oracle.Under_investigation -> Some "UI"

let table6 (campaign : Campaign.t) =
  let attribution_of k = Oracle.attribute_keyed k in
  let columns =
    List.map string_of_int [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] @ [ "KD"; "FP"; "UI" ]
  in
  let col_of k =
    match column_of_attribution (attribution_of k) with
    | Some c -> c
    | None -> "UI"
  in
  let count_reports col =
    List.length (List.filter (fun k -> String.equal (col_of k) col) campaign.Campaign.keyed)
  in
  let count_groups groups col =
    List.length
      (List.filter
         (fun (g : Aggregate.group) ->
           List.exists (fun m -> String.equal (col_of m) col) g.Aggregate.members)
         groups)
  in
  let data =
    List.map
      (fun col ->
        { column = col; reports = count_reports col;
          agg_rs_groups = count_groups campaign.Campaign.agg_rs col;
          agg_r_groups = count_groups campaign.Campaign.agg_r col })
      columns
  in
  let line label get =
    Printf.sprintf "%-17s %s | %5d" label
      (String.concat " "
         (List.map (fun c -> Printf.sprintf "%5d" (get c)) data))
      (List.fold_left (fun acc c -> acc + get c) 0 data)
  in
  let header =
    Printf.sprintf "%-17s %s | total" ""
      (String.concat " " (List.map (Printf.sprintf "%5s") columns))
  in
  ( data,
    buf_table header
      [ line "Filtered reports" (fun c -> c.reports);
        line "AGG-RS groups" (fun c -> c.agg_rs_groups);
        line "AGG-R groups" (fun c -> c.agg_r_groups) ] )

(* --- Section 6.5: performance ----------------------------------------- *)

let performance (campaign : Campaign.t) =
  let t = campaign.Campaign.timings in
  let n_corpus = Array.length campaign.Campaign.corpus in
  let execs = campaign.Campaign.executions in
  let exec_rate =
    if t.Campaign.execute_s > 0.0 then
      float_of_int execs /. t.Campaign.execute_s
    else 0.0
  in
  let prof_rate =
    if t.Campaign.profile_s > 0.0 then
      float_of_int n_corpus /. t.Campaign.profile_s
    else 0.0
  in
  Printf.sprintf
    "profiled %d programs in %.2fs (%.0f programs/s)\n\
     generated %d clusters from %d data flows in %.2fs\n\
     %d program executions in %.2fs (%.0f executions/s)"
    n_corpus t.Campaign.profile_s prof_rate
    campaign.Campaign.generation.Cluster.clusters campaign.Campaign.df_total
    t.Campaign.generate_s execs t.Campaign.execute_s exec_rate

(* --- Section 6.1 ablation: CONFIG_JUMP_LABEL ----------------------------- *)

(* Jump labels patch the flow-label static key into the code, so the
   profiler never sees its accesses: data-flow generation misses bugs
   #2 and #4, while RAND, which needs no profile, still reaches them. *)
let jump_label (options : Campaign.options) =
  let strategies =
    [ Cluster.Df_ia; Cluster.Rand (4 * options.Campaign.corpus_size) ]
  in
  let prepared =
    Campaign.prepare ~strategies
      { options with Campaign.config = Config.v5_13 ~jump_label:true () }
  in
  let data =
    List.map
      (fun strategy -> row_of (Campaign.execute_prepared ~strategy prepared))
      strategies
  in
  let missed r =
    List.filter (fun b -> not (List.exists (Bugs.equal b) r.bugs_found))
      Bugs.new_bugs
  in
  let rows =
    List.map
      (fun r ->
        Printf.sprintf "%-9s %8d %-13s %s"
          (Cluster.strategy_name r.strategy)
          r.test_cases (render_effectiveness r)
          (match missed r with
          | [] -> "-"
          | bugs -> String.concat ", " (List.map Bugs.to_string bugs)))
      data
  in
  (data, buf_table "Gen       Test cases Effectiveness Missed" rows)

(* --- Section 6.4 ablation: spec refinement ------------------------------- *)

type report_class = {
  attribution : string;
  receiver : string;
  default_reports : int;
  refined_reports : int;
}

(* Both campaigns' reports, counted per (attribution, receiver
   signature) class and ordered by Table 6 column, so bugs come first. *)
let spec_refinement (options : Campaign.options) =
  let run spec = (Campaign.run { options with Campaign.spec }).Campaign.keyed in
  let default = run Spec.default and refined = run Spec.refined in
  let key k =
    let a = Oracle.attribute_keyed k in
    ( column_of_attribution a, Oracle.attribution_to_string a,
      Kit_report.Signature.to_string k.Aggregate.receiver_sig )
  in
  let count keyed cls =
    List.length (List.filter (fun k -> key k = cls) keyed)
  in
  let data =
    List.sort_uniq compare (List.map key (default @ refined))
    |> List.map (fun ((_, attribution, receiver) as cls) ->
           { attribution; receiver; default_reports = count default cls;
             refined_reports = count refined cls })
  in
  let line a r d n = Printf.sprintf "%-24s %-34s %7s %7s" a r d n in
  let rows =
    List.map
      (fun c ->
        line c.attribution c.receiver (string_of_int c.default_reports)
          (string_of_int c.refined_reports))
      data
    @ [ line "total" "" (string_of_int (List.length default))
          (string_of_int (List.length refined)) ]
  in
  (data, buf_table (line "Attribution" "Receiver" "Default" "Refined") rows)

(* --- Section 7 extension: time namespace, bounds detector ---------------- *)

type bounds_row = {
  kernel : string;
  raw_diffs : int;
  masked_diffs : int;
  violations : int;
}

(* The sender shifts the clock; the receiver reads it. On 5.13 the shift
   crosses time namespaces, but a clock differs between any two runs, so
   the non-determinism mask hides the divergence; the bounds detector
   flags the out-of-range value instead. The fixed kernel is the
   control. *)
let bounds () =
  let sender = Syzlang.parse "r0 = clock_settime(5)"
  and receiver = Syzlang.parse "r0 = clock_gettime()" in
  let row kernel config =
    let runner = Runner.create (Env.create config) in
    let o = Runner.execute runner ~sender ~receiver in
    { kernel;
      raw_diffs = List.length o.Runner.raw_diffs;
      masked_diffs = List.length o.Runner.masked_diffs;
      violations =
        List.length (Runner.execute_bounds runner ~sender ~receiver) }
  in
  let data = [ row "5.13" (Config.v5_13 ()); row "fixed" (Config.fixed ()) ] in
  let rows =
    List.map
      (fun r ->
        Printf.sprintf "%-6s %9d %12d %16d" r.kernel r.raw_diffs r.masked_diffs
          r.violations)
      data
  in
  (data, buf_table "Kernel Raw diffs Masked diffs Bound violations" rows)
