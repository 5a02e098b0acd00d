(* The partial specification of namespace-protected resources (paper,
   section 4.3.1). Two encoding formats: file-descriptor type rules (a
   call is selected when it uses or returns a protected fd type) and
   callback checker functions. The specification is intentionally
   *partial* and incrementally refined: the default over-approximates
   /proc files outside /proc/net as protected, which is exactly what lets
   the minor-device-number and /proc/crypto false positives through — as
   observed in the paper's section 6.4. A specification is plain data:
   checkers are a closed variant and seed calls are named by syscall. *)

module Program = Kit_abi.Program
module Fdtype = Kit_abi.Fdtype
module Sysno = Kit_abi.Sysno

type t = {
  protected_fd_types : Fdtype.t list;
  checkers : Checker.t list;
  seed_selectors : Sysno.t list;
  protected_var_prefixes : string list;
}

(* The shared-variable side of the specification: kernel variables whose
   subsystem prefix appears here are the namespace-protected state the
   coverage ledger tracks. Mirrors the fd-type rules above — the listed
   subsystems are exactly the ones a protected fd type or checker can
   reach. Infrastructure state (clock., krng., proc., vfs., slab.) and
   the deliberately-unprotected token subsystem are excluded. *)
let default_var_prefixes =
  [ "nf."; "net."; "sock."; "proto."; "ipv6."; "rds."; "sctp."; "seq.";
    "crypto."; "devid."; "ipvs."; "uevent."; "sched."; "uts."; "ipc.";
    "mnt."; "timens." ]

let default =
  {
    protected_fd_types =
      [ Fdtype.Sock_tcp; Fdtype.Sock_udp; Fdtype.Sock_packet; Fdtype.Sock_rds;
        Fdtype.Sock_sctp; Fdtype.Sock_unix; Fdtype.Sock_alg;
        Fdtype.Sock_uevent; Fdtype.Sock_inet6; Fdtype.Procfs_net;
        Fdtype.Msgqid; Fdtype.Tmpfile;
        (* Over-approximation: not everything under /proc outside /proc/net
           is namespaced; kept protected here to mirror the incomplete
           filtering the paper reports (61 FP reports, section 6.4). *)
        Fdtype.Procfs_misc ]
      (* Fdtype.Token deliberately unprotected: its ids are unreachable. *);
    checkers = Checker.all;
    seed_selectors = [];
    protected_var_prefixes = default_var_prefixes;
  }

(* A specification refined by dropping Procfs_misc — what a user would do
   after triaging the /proc/crypto false positives. Used by the section
   6.4 ablation of [kit tables]. *)
let refined =
  {
    default with
    protected_fd_types =
      List.filter
        (fun ty -> not (Fdtype.equal ty Fdtype.Procfs_misc))
        default.protected_fd_types;
  }

let fd_type_protected t ty = List.exists (Fdtype.equal ty) t.protected_fd_types

(* Is a kernel shared variable namespace-protected state? Matched by
   subsystem prefix of the variable's registration name (e.g.
   "net.somaxconn" under "net."). Drives the coverage ledger universe. *)
let var_protected t name =
  List.exists
    (fun prefix ->
      String.length name >= String.length prefix
      && String.sub name 0 (String.length prefix) = prefix)
    t.protected_var_prefixes

(* Does call [i] of [prog] access a namespace-protected resource? True
   when the call returns or consumes a protected fd type, or when a
   checker selects it. [types] is [Program.result_types prog]. *)
let call_protected t prog types i =
  match Program.nth prog i with
  | None -> false
  | Some call ->
    let returns_protected =
      match types.(i) with
      | Some ty -> fd_type_protected t ty
      | None -> false
    in
    let uses_protected =
      List.exists (fd_type_protected t) (Program.uses_types types call)
    in
    let seed_dependent =
      List.exists
        (fun sysno ->
          Seed_dep.is_dependent prog i ~seed:(fun (c : Program.call) ->
              Sysno.equal c.Program.sysno sysno))
        t.seed_selectors
    in
    returns_protected || uses_protected || seed_dependent
    || List.exists (fun c -> Checker.matches c call) t.checkers

(* The protected call indices of a whole program. *)
let protected_indices t prog =
  let types = Program.result_types prog in
  let n = Program.length prog in
  let rec collect i acc =
    if i >= n then List.rev acc
    else collect (i + 1) (if call_protected t prog types i then i :: acc else acc)
  in
  collect 0 []

(* Highlight seed calls (paper, section 5.3): every call with an
   explicit data dependency on a call to [sysno] becomes selected, in
   addition to the existing rules. *)
let with_seed_selector t sysno =
  { t with seed_selectors = sysno :: t.seed_selectors }

(* Summary used in documentation/tests: how many rules the spec holds. *)
let rule_counts t =
  (List.length t.protected_fd_types, List.length t.checkers)
