(* Typed JSON codecs for case results. See codec.mli.

   Every record is a JSON object whose field names are the tags.
   Decoders look fields up by name, so field order never matters,
   unknown fields are ignored and optional fields fall back to their
   defaults when absent — which is what lets a record grow a field
   without a checkpoint kind bump. Encoders omit optional fields that
   hold their default, which keeps the common case (a case with no
   report, no concurrent finding and no crash) to a few dozen bytes. *)

module Jsonl = Kit_obs.Jsonl
module Testcase = Kit_gen.Testcase
module Program = Kit_abi.Program
module Sysno = Kit_abi.Sysno
module Value = Kit_abi.Value
module Ast = Kit_trace.Ast
module Compare = Kit_trace.Compare
module Report = Kit_detect.Report
module Filter = Kit_detect.Filter
module Supervisor = Kit_exec.Supervisor
module Fault = Kit_kernel.Fault

(* -- decoding combinators ------------------------------------------------- *)

type 'a decoder = Jsonl.t -> ('a, string) result

let ( let* ) = Result.bind

let int = function Jsonl.Int n -> Ok n | _ -> Error "expected an integer"
let string = function Jsonl.Str s -> Ok s | _ -> Error "expected a string"
let bool = function Jsonl.Bool b -> Ok b | _ -> Error "expected a boolean"

let list d = function
  | Jsonl.List items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match d x with Ok v -> go (v :: acc) rest | Error _ as e -> e)
    in
    go [] items
  | _ -> Error "expected a list"

let lookup name d ~absent = function
  | Jsonl.Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> Result.map_error (fun e -> name ^ ": " ^ e) (d v)
    | None -> absent ())
  | _ -> Error "expected an object"

let field name d = lookup name d ~absent:(fun () -> Error ("missing " ^ name))
let field_or name ~default d = lookup name d ~absent:(fun () -> Ok default)

let parse d s =
  match Jsonl.parse s with Ok j -> d j | Error e -> Error ("bad JSON: " ^ e)

(* [field_or]'s encoding twin: the field only when it is not the
   default. *)
let opt name enc ~default v = if v = default then [] else [ (name, enc v) ]

let ints l = Jsonl.List (List.map (fun n -> Jsonl.Int n) l)

(* -- testcases ------------------------------------------------------------ *)

let flow_to_json (f : Testcase.flow) =
  Jsonl.Obj
    [ ("addr", Jsonl.Int f.Testcase.addr);
      ("w_ip", Jsonl.Int f.Testcase.w_ip);
      ("r_ip", Jsonl.Int f.Testcase.r_ip);
      ("w_stack", ints f.Testcase.w_stack);
      ("r_stack", ints f.Testcase.r_stack);
      ("r_sys_index", Jsonl.Int f.Testcase.r_sys_index) ]

let flow_of_json j =
  let* addr = field "addr" int j in
  let* w_ip = field "w_ip" int j in
  let* r_ip = field "r_ip" int j in
  let* w_stack = field "w_stack" (list int) j in
  let* r_stack = field "r_stack" (list int) j in
  let* r_sys_index = field "r_sys_index" int j in
  Ok { Testcase.addr; w_ip; r_ip; w_stack; r_stack; r_sys_index }

let testcase_to_json (tc : Testcase.t) =
  Jsonl.Obj
    ([ ("sender", Jsonl.Int tc.Testcase.sender);
       ("receiver", Jsonl.Int tc.Testcase.receiver) ]
    @
    match tc.Testcase.flow with
    | None -> []
    | Some f -> [ ("flow", flow_to_json f) ])

let testcase_of_json j =
  let* sender = field "sender" int j in
  let* receiver = field "receiver" int j in
  let* flow =
    field_or "flow" ~default:None
      (fun f -> Result.map Option.some (flow_of_json f))
      j
  in
  Ok { Testcase.sender; receiver; flow }

(* -- programs ------------------------------------------------------------- *)

let value_to_json = function
  | Value.Int n -> Jsonl.Int n
  | Value.Str s -> Jsonl.Str s
  | Value.Ref i -> Jsonl.Obj [ ("ref", Jsonl.Int i) ]

let value_of_json = function
  | Jsonl.Int n -> Ok (Value.Int n)
  | Jsonl.Str s -> Ok (Value.Str s)
  | j -> Result.map (fun i -> Value.Ref i) (field "ref" int j)

let sysno_of_json j =
  let* name = string j in
  match Sysno.of_string name with
  | Some s -> Ok s
  | None -> Error ("unknown syscall " ^ name)

let program_to_json p =
  Jsonl.List
    (List.map
       (fun (c : Program.call) ->
         Jsonl.Obj
           [ ("sys", Jsonl.Str (Sysno.to_string c.Program.sysno));
             ("args", Jsonl.List (List.map value_to_json c.Program.args)) ])
       (Program.calls p))

let program_of_json j =
  let call c =
    let* sysno = field "sys" sysno_of_json c in
    let* args = field "args" (list value_of_json) c in
    Ok { Program.sysno; args }
  in
  Result.map Program.make (list call j)

(* -- diff subtrees ---------------------------------------------------------

   A node is its label, its value (leaves only), its det flag and its
   children; the packed fields (size, counts, hash) are derived again by
   the smart constructors, so a decoded tree is [Ast.equal] to the
   encoded one. *)

let rec ast_to_json (t : Ast.t) =
  Jsonl.Obj
    ((("label", Jsonl.Str t.Ast.label)
     :: opt "value" (fun v -> Jsonl.Str v) ~default:"" t.Ast.value)
    @ opt "det" (fun d -> Jsonl.Bool d) ~default:true t.Ast.det
    @ opt "kids" (fun k -> Jsonl.List (List.map ast_to_json k)) ~default:[]
        t.Ast.children)

let rec ast_of_json j =
  let* label = field "label" string j in
  let* value = field_or "value" ~default:"" string j in
  let* det = field_or "det" ~default:true bool j in
  let* kids = field_or "kids" ~default:[] (list ast_of_json) j in
  match kids with
  | [] -> Ok (Ast.leaf ~det label value)
  | _ :: _ when value = "" -> Ok (Ast.node ~det label kids)
  | _ :: _ -> Error "trace node has both a value and children"

let diff_to_json (d : Compare.diff) =
  Jsonl.Obj
    [ ("path", Jsonl.List (List.map (fun s -> Jsonl.Str s) d.Compare.path));
      ("left", ast_to_json d.Compare.left);
      ("right", ast_to_json d.Compare.right) ]

let diff_of_json j =
  let* path = field "path" (list string) j in
  let* left = field "left" ast_of_json j in
  let* right = field "right" ast_of_json j in
  Ok { Compare.path; left; right }

(* -- reports -------------------------------------------------------------- *)

let diffs_to_json l = Jsonl.List (List.map diff_to_json l)

let origin_to_json = function
  | Report.Sequential -> Jsonl.Str "sequential"
  | Report.Concurrent { seeds; fingerprint; raw_diffs } ->
    Jsonl.Obj
      [ ("seeds", ints seeds); ("fingerprint", Jsonl.Int fingerprint);
        ("raw_diffs", diffs_to_json raw_diffs) ]

(* A log written before concurrent reports carried their raw diffs
   gives the masked ones, a subset: attribution reads them the same
   way. *)
let origin_of_json ~diffs = function
  | Jsonl.Str "sequential" -> Ok Report.Sequential
  | j ->
    let* seeds = field "seeds" (list int) j in
    let* fingerprint = field "fingerprint" int j in
    let* raw_diffs = field_or "raw_diffs" ~default:diffs (list diff_of_json) j in
    Ok (Report.Concurrent { seeds; fingerprint; raw_diffs })

let report_to_json (r : Report.t) =
  Jsonl.Obj
    ([ ("testcase", testcase_to_json r.Report.testcase);
       ("sender", program_to_json r.Report.sender);
       ("receiver", program_to_json r.Report.receiver);
       ("interfered", ints r.Report.interfered);
       ("diffs", diffs_to_json r.Report.diffs) ]
    @ opt "origin" origin_to_json ~default:Report.Sequential r.Report.origin)

let report_of_json j =
  let* testcase = field "testcase" testcase_of_json j in
  let* sender = field "sender" program_of_json j in
  let* receiver = field "receiver" program_of_json j in
  let* interfered = field "interfered" (list int) j in
  let* diffs = field "diffs" (list diff_of_json) j in
  let* origin =
    field_or "origin" ~default:Report.Sequential (origin_of_json ~diffs) j
  in
  Ok { Report.testcase; sender; receiver; interfered; diffs; origin }

(* -- crash reports -------------------------------------------------------- *)

let reason_to_json = function
  | Supervisor.Panicked p ->
    Jsonl.Obj
      [ ( "panicked",
          Jsonl.Obj
            [ ("sysno", Jsonl.Str (Sysno.to_string p.Fault.panic_sysno));
              ("occurrence", Jsonl.Int p.Fault.occurrence);
              ("message", Jsonl.Str p.Fault.message) ] ) ]
  | Supervisor.Hung_forever -> Jsonl.Str "hung_forever"
  | Supervisor.Worker_lost why ->
    Jsonl.Obj [ ("worker_lost", Jsonl.Str why) ]

let panic_of_json j =
  let* panic_sysno = field "sysno" sysno_of_json j in
  let* occurrence = field "occurrence" int j in
  let* message = field "message" string j in
  Ok (Supervisor.Panicked { Fault.panic_sysno; occurrence; message })

let reason_of_json = function
  | Jsonl.Str "hung_forever" -> Ok Supervisor.Hung_forever
  | Jsonl.Obj fields as j when List.mem_assoc "panicked" fields ->
    field "panicked" panic_of_json j
  | Jsonl.Obj fields as j when List.mem_assoc "worker_lost" fields ->
    Result.map
      (fun why -> Supervisor.Worker_lost why)
      (field "worker_lost" string j)
  | _ -> Error "unknown crash reason"

let crash_to_json (c : Supervisor.crash) =
  Jsonl.Obj
    [ ("sender", program_to_json c.Supervisor.c_sender);
      ("receiver", program_to_json c.Supervisor.c_receiver);
      ("reason", reason_to_json c.Supervisor.c_reason);
      ("attempts", Jsonl.Int c.Supervisor.c_attempts) ]

let crash_of_json j =
  let* c_sender = field "sender" program_of_json j in
  let* c_receiver = field "receiver" program_of_json j in
  let* c_reason = field "reason" reason_of_json j in
  let* c_attempts = field "attempts" int j in
  Ok { Supervisor.c_sender; c_receiver; c_reason; c_attempts }

(* -- case results --------------------------------------------------------- *)

let funnel_to_json (f : Filter.funnel) =
  Jsonl.Obj
    [ ("executed", Jsonl.Int f.Filter.executed);
      ("initial", Jsonl.Int f.Filter.initial);
      ("after_nondet", Jsonl.Int f.Filter.after_nondet);
      ("after_resource", Jsonl.Int f.Filter.after_resource) ]

let funnel_of_json j =
  let* executed = field "executed" int j in
  let* initial = field "initial" int j in
  let* after_nondet = field "after_nondet" int j in
  let* after_resource = field "after_resource" int j in
  Ok { Filter.executed; initial; after_nondet; after_resource }

let sched_to_json (s : Campaign.sched_stats) =
  Jsonl.Obj
    [ ("candidates", Jsonl.Int s.Campaign.sched_candidates);
      ("classes", Jsonl.Int s.Campaign.sched_classes);
      ("executed", Jsonl.Int s.Campaign.sched_executed);
      ("pruned", Jsonl.Int s.Campaign.sched_pruned);
      ("skipped", Jsonl.Int s.Campaign.sched_skipped) ]

let sched_of_json j =
  let* sched_candidates = field "candidates" int j in
  let* sched_classes = field "classes" int j in
  let* sched_executed = field "executed" int j in
  let* sched_pruned = field "pruned" int j in
  let* sched_skipped = field "skipped" int j in
  Ok
    { Campaign.sched_candidates; sched_classes; sched_executed; sched_pruned;
      sched_skipped }

let case_result_to_json (cr : Campaign.case_result) =
  Jsonl.Obj
    ([ ("testcase", testcase_to_json cr.Campaign.cr_tc);
       ("funnel", funnel_to_json cr.Campaign.cr_funnel) ]
    @ (match cr.Campaign.cr_report with
      | None -> []
      | Some r -> [ ("report", report_to_json r) ])
    @ opt "concurrent" (fun l -> Jsonl.List (List.map report_to_json l))
        ~default:[] cr.Campaign.cr_concurrent
    @ opt "sched" sched_to_json ~default:(Campaign.sched_create ())
        cr.Campaign.cr_sched
    @ opt "crashes" (fun l -> Jsonl.List (List.map crash_to_json l))
        ~default:[] cr.Campaign.cr_crashes)

let case_result_of_json j =
  let* cr_tc = field "testcase" testcase_of_json j in
  let* cr_funnel = field "funnel" funnel_of_json j in
  let* cr_report =
    field_or "report" ~default:None
      (fun r -> Result.map Option.some (report_of_json r)) j
  in
  let* cr_concurrent =
    field_or "concurrent" ~default:[] (list report_of_json) j
  in
  let* cr_sched =
    field_or "sched" ~default:(Campaign.sched_create ()) sched_of_json j
  in
  let* cr_crashes = field_or "crashes" ~default:[] (list crash_of_json) j in
  Ok
    { Campaign.cr_tc; cr_funnel; cr_report; cr_concurrent; cr_sched;
      cr_crashes }
