(* Ground-truth attribution of diagnosed reports. The paper's authors
   triage AGG-RS groups by hand (30 person-hours, section 6.4); the
   reproduction needs an executable oracle to fill Tables 2/4/6, mapping
   each culprit (sender, receiver) signature pair onto the bug it
   witnesses, a known false-positive class, or "under investigation". *)

module Bugs = Kit_kernel.Bugs
module Consts = Kit_abi.Consts
module Signature = Kit_report.Signature
module Aggregate = Kit_report.Aggregate

type attribution =
  | Bug of Bugs.id
  | False_positive of string     (* FP class label *)
  | Under_investigation

let attribution_to_string = function
  | Bug b -> Bugs.to_string b
  | False_positive cls -> "FP:" ^ cls
  | Under_investigation -> "UI"

let has_detail (s : Signature.t) d = List.exists (String.equal d) s.Signature.details
let named (s : Signature.t) n = String.equal s.Signature.name n

(* Attribute one diagnosed report by its culprit pair signatures. *)
let attribute ~(sender : Signature.t) ~(receiver : Signature.t) =
  let reads path = named receiver "read" && has_detail receiver path in
  if named receiver "fstat" then False_positive "minor-dev"
  else if reads Consts.proc_crypto then False_positive "crypto"
  else if named receiver "af_alg_bind" then False_positive "crypto"
  else if reads Consts.proc_slabinfo then Under_investigation
  else if reads Consts.proc_net_ptype then
    if named sender "socket" && has_detail sender "AF_PACKET" then
      Bug Bugs.B1_ptype_leak
    else if named sender "close" && has_detail sender "AF_PACKET" then
      Bug Bugs.B1_ptype_leak
    else Under_investigation
  else if named receiver "send" && named sender "flowlabel_request" then
    Bug Bugs.B2_flowlabel_send
  else if named receiver "connect" && named sender "flowlabel_request" then
    Bug Bugs.B4_flowlabel_connect
  else if
    named receiver "bind" && has_detail receiver "AF_RDS"
    && named sender "bind" && has_detail sender "AF_RDS"
  then Bug Bugs.B3_rds_bind
  else if reads Consts.proc_net_sockstat then begin
    if named sender "alloc_protomem" then Bug Bugs.B8_protomem_sockstat
    else if
      (named sender "socket" || named sender "close")
      && has_detail sender "AF_INET_TCP"
    then Bug Bugs.B5_sockstat_tcp
    else Under_investigation
  end
  else if reads Consts.proc_net_protocols then
    if named sender "alloc_protomem" then Bug Bugs.B9_protomem_protocols
    else Under_investigation
  else if named receiver "get_cookie" && named sender "get_cookie" then
    Bug Bugs.B6_cookie
  else if named receiver "sctp_assoc" && named sender "sctp_assoc" then
    Bug Bugs.B7_sctp_assoc
  else if
    named receiver "getpriority" && has_detail receiver "PRIO_USER"
    && named sender "setpriority"
  then Bug Bugs.KA_prio_user
  else if named receiver "uevent_recv" && named sender "netdev_create" then
    Bug Bugs.KB_uevent
  else if reads Consts.proc_net_ip_vs && named sender "ipvs_add_service" then
    Bug Bugs.KC_ipvs
  else if
    named receiver "sysctl_read" && has_detail receiver Consts.sysctl_conntrack_max
    && named sender "sysctl_write"
  then Bug Bugs.KD_conntrack_max
  else if named receiver "io_uring_read" && named sender "creat" then
    Bug Bugs.KE_iouring_mount
  else Under_investigation

let attribute_keyed (k : Aggregate.keyed) =
  attribute ~sender:k.Aggregate.sender_sig ~receiver:k.Aggregate.receiver_sig

(* The set of *new* bugs (Table 2 universe) witnessed by a report list. *)
let new_bugs_found keyed_reports =
  let found =
    List.filter_map
      (fun k ->
        match attribute_keyed k with
        | Bug b when List.exists (Bugs.equal b) Bugs.new_bugs -> Some b
        | Bug _ | False_positive _ | Under_investigation -> None)
      keyed_reports
  in
  List.sort_uniq Bugs.compare found

(* -- concurrent (schedule-search) reports ---------------------------------

   Concurrent reports never go through Algorithm 2 diagnosis (re-testing
   a schedule-dependent divergence sequentially is meaningless), so
   there is no culprit signature pair to attribute by. Attribution reads
   the report directly: the syscall composition of the pair plus the
   diff content identifies each seeded race-window bug. *)

module Program = Kit_abi.Program
module Sysno = Kit_abi.Sysno
module Report = Kit_detect.Report
module Compare = Kit_trace.Compare

let has_call prog sysno =
  List.exists
    (fun (c : Program.call) -> Sysno.equal c.Program.sysno sysno)
    (Program.calls prog)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  || (nn <= nh
      && Seq.exists
           (fun i -> String.equal (String.sub hay i nn) needle)
           (Seq.init (nh - nn + 1) Fun.id))

let diff_mentions (r : Report.t) needle =
  List.exists
    (fun (d : Compare.diff) ->
      contains d.Compare.left.Kit_trace.Ast.value needle
      || contains d.Compare.right.Kit_trace.Ast.value needle
      || List.exists (fun p -> contains p needle) d.Compare.path)
    r.Report.diffs

(* A child-count diff reports only the parent node, so a leaf the
   interleaved trace *gained* never shows up in the diff values — but
   the diff holds both parents' subtrees: the marker is in the left
   (interleaved) one and not in the right (solo) one. The unmasked
   diffs are read: the gained leaf can sit below a node the mask makes
   non-deterministic, where the masked comparison stops. *)
let rec subtree_mentions (t : Kit_trace.Ast.t) needle =
  contains t.Kit_trace.Ast.value needle
  || List.exists (fun c -> subtree_mentions c needle) t.Kit_trace.Ast.children

let gained (r : Report.t) needle =
  match r.Report.origin with
  | Report.Sequential -> false
  | Report.Concurrent { raw_diffs; _ } ->
    List.exists
      (fun (d : Compare.diff) ->
        subtree_mentions d.Compare.left needle
        && not (subtree_mentions d.Compare.right needle))
      raw_diffs

let opens_path prog path =
  List.exists
    (fun (c : Program.call) ->
      Sysno.equal c.Program.sysno Sysno.Open
      && List.exists
           (function Kit_abi.Value.Str s -> String.equal s path | _ -> false)
           c.Program.args)
    (Program.calls prog)

let attribute_concurrent (r : Report.t) =
  let sender = r.Report.sender and receiver = r.Report.receiver in
  if gained r "seq_file: truncated" then Bug Bugs.RW3_seqfile_busy
  else if has_call sender Sysno.Get_cookie && has_call receiver Sysno.Get_cookie
  then Bug Bugs.RW2_cookie_window
  else if
    has_call sender Sysno.Alloc_protomem
    && opens_path receiver Consts.proc_net_sockstat
    && diff_mentions r "mem"
  then Bug Bugs.RW1_protomem_inflight
  else Under_investigation

(* The set of seeded race-window bugs witnessed by a concurrent report
   list (the CI e2e gate asserts all of them within a fixed schedule
   budget). *)
let race_bugs_found concurrent_reports =
  let found =
    List.filter_map
      (fun r ->
        match attribute_concurrent r with
        | Bug b when List.exists (Bugs.equal b) Bugs.race_bugs -> Some b
        | Bug _ | False_positive _ | Under_investigation -> None)
      concurrent_reports
  in
  List.sort_uniq Bugs.compare found
