(* The report filtering funnel (paper, sections 4.3 and 6.4, Table 5):

   1. a test case whose raw traces diverge is an *initial* (candidate)
      report;
   2. if no divergence survives non-determinism masking, the candidate is
      filtered as non-deterministic;
   3. if none of the surviving diverging receiver calls accesses a
      namespace-protected resource, the candidate is filtered by the
      resource specification;
   4. otherwise it becomes a filtered report, restricted to the protected
      diverging calls. *)

module Program = Kit_abi.Program
module Runner = Kit_exec.Runner
module Spec = Kit_spec.Spec

type verdict =
  | No_divergence
  | Filtered_nondet
  | Filtered_resource
  | Reported of Report.t

type funnel = {
  mutable executed : int;
  mutable initial : int;
  mutable after_nondet : int;
  mutable after_resource : int;
}

let funnel_create () =
  { executed = 0; initial = 0; after_nondet = 0; after_resource = 0 }

(* Receiver call indices that access protected resources. *)
let protected_interfered spec receiver interfered =
  let types = Program.result_types receiver in
  List.filter (fun i -> Spec.call_protected spec receiver types i) interfered

let classify spec ~testcase ~sender ~receiver (outcome : Runner.outcome) funnel =
  funnel.executed <- funnel.executed + 1;
  if outcome.Runner.raw_diffs = [] then No_divergence
  else begin
    funnel.initial <- funnel.initial + 1;
    if outcome.Runner.masked_diffs = [] then Filtered_nondet
    else begin
      funnel.after_nondet <- funnel.after_nondet + 1;
      let surviving = protected_interfered spec receiver outcome.Runner.interfered in
      if surviving = [] then Filtered_resource
      else begin
        funnel.after_resource <- funnel.after_resource + 1;
        Reported
          { Report.testcase; sender; receiver; interfered = surviving;
            diffs = outcome.Runner.masked_diffs; origin = Report.Sequential }
      end
    end
  end

(* Classify one concurrent finding from schedule search. Masking already
   happened inside the search (stage 2 of the funnel), so only the
   resource-specification stage applies here; the sequential funnel's
   counters are deliberately left untouched — Table 5 accounts the
   paper's sequential pipeline, and concurrent totals are reported
   separately by the campaign. *)
let classify_concurrent spec ~testcase ~sender ~receiver
    (c : Runner.concurrent) =
  let surviving = protected_interfered spec receiver c.Runner.cc_interfered in
  if surviving = [] then None
  else
    Some
      { Report.testcase; sender; receiver; interfered = surviving;
        diffs = c.Runner.cc_diffs;
        origin =
          Report.Concurrent
            { seeds = c.Runner.cc_seeds; fingerprint = c.Runner.cc_fingerprint;
              raw_diffs = c.Runner.cc_raw_diffs } }

let pp_funnel ppf f =
  let pct n =
    if f.initial = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int f.initial
  in
  Fmt.pf ppf
    "@[<v>Tests executed            %8d@,\
     Initial reports           %8d  100%%@,\
     After non-det filtering   %8d  %.2f%%@,\
     After non-det + resource  %8d  %.2f%%@]"
    f.executed f.initial f.after_nondet (pct f.after_nondet) f.after_resource
    (pct f.after_resource)
