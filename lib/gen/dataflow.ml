(* Corpus profiling and the inter-container data-flow analysis
   (paper, section 4.1.1): profile every test program from an identical
   snapshot, fold the kernel memory accesses into the access map, and
   keep — on the reader side — only accesses performed by system calls
   that the specification marks as touching namespace-protected
   resources. *)

module Program = Kit_abi.Program
module Kevent = Kit_kernel.Kevent
module Collect = Kit_profile.Collect
module Stackrec = Kit_profile.Stackrec
module Accessmap = Kit_profile.Accessmap

type profiles = {
  programs : Program.t array;
  accesses : Stackrec.access list array;
  protected_calls : bool array array;   (* per program, per syscall index *)
  vars : Kit_kernel.Heap.varinfo list;  (* the profiled kernel's registry *)
}

(* Profile the whole corpus in the receiver container's environment.
   (Sender and receiver containers are symmetric in the model, so one
   profiling run per program provides the access footprint for both
   roles; the performance benches account for the paper's four runs.) *)
let profile_corpus config spec corpus =
  let profiler = Collect.create config in
  let programs = Array.of_list corpus in
  let accesses =
    Array.map
      (fun prog -> (Collect.profile profiler ~role:Collect.Receiver prog).Collect.accesses)
      programs
  in
  let protected_calls =
    Array.map
      (fun prog ->
        let types = Program.result_types prog in
        Array.init (Program.length prog) (fun i ->
            Kit_spec.Spec.call_protected spec prog types i))
      programs
  in
  { programs; accesses; protected_calls; vars = Collect.vars profiler }

(* Writer entries are unrestricted; reader entries are kept only when
   the reading syscall accesses a protected resource — data flows whose
   reader cannot witness protected state are useless for functional
   interference testing. *)
let filter_accesses ~protected_calls accs =
  let keep (a : Stackrec.access) =
    match a.Stackrec.rw with
    | Kevent.Write -> true
    | Kevent.Read ->
      a.Stackrec.sys_index < Array.length protected_calls
      && protected_calls.(a.Stackrec.sys_index)
  in
  List.filter keep accs

(* Build the access map from batch profiles. *)
let build_map profiles =
  let map = Accessmap.create () in
  Array.iteri
    (fun prog accs ->
      Accessmap.add map ~prog
        (filter_accesses ~protected_calls:profiles.protected_calls.(prog) accs))
    profiles.accesses;
  map

(* -- streaming profiler --------------------------------------------------

   Campaigns profile one program at a time and feed its contribution
   straight into the online cluster tables; the batch reference model
   above profiles the whole corpus behind one barrier. Both share
   [filter_accesses], so a program's contribution is identical either
   way (the profiler reloads the same snapshot per program). *)

type profiler = { collect : Collect.t; spec : Kit_spec.Spec.t }

let profiler config spec = { collect = Collect.create config; spec }

let profiler_vars t = Collect.vars t.collect

(* Raw and filtered accesses of one program: the filtered list feeds the
   access map / online clustering; the raw list is what the coverage
   ledger's "touched" rung counts (it must see reader accesses the spec
   filter drops — that is exactly the visibility the ledger adds). *)
let profile_program_full t prog =
  let accesses =
    (Collect.profile t.collect ~role:Collect.Receiver prog).Collect.accesses
  in
  let types = Program.result_types prog in
  let protected_calls =
    Array.init (Program.length prog) (fun i ->
        Kit_spec.Spec.call_protected t.spec prog types i)
  in
  (accesses, filter_accesses ~protected_calls accesses)

(* The total number of unclustered data-flow test cases — the DF row of
   Table 4: one per (write access site, read access site) pair on a
   shared address. *)
let total_flows map =
  let total = ref 0 in
  Accessmap.iter_overlap_chains map
    (fun ~addr:_ ~whead:_ ~wcount ~rhead:_ ~rcount ->
      total := !total + (wcount * rcount));
  !total
