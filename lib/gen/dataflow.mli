(** Corpus profiling and the inter-container data-flow analysis (paper,
    section 4.1.1): profile every test program from an identical
    snapshot and keep — on the reader side — only accesses performed by
    syscalls that the specification marks as touching
    namespace-protected resources.

    Campaigns use the streaming {!profiler}, one program at a time. The
    batch {!profile_corpus}, {!build_map} and {!total_flows} build the
    whole access map behind one barrier; they are the reference model
    that tests and the benchmark's replay compare the online cluster
    tables against, and no campaign calls them. *)

type profiles = {
  programs : Kit_abi.Program.t array;
  accesses : Kit_profile.Stackrec.access list array;
  protected_calls : bool array array;  (** per program, per syscall index *)
  vars : Kit_kernel.Heap.varinfo list;
      (** the profiled kernel's shared-variable registry, boot order —
          the coverage ledger's raw universe *)
}

val profile_corpus :
  Kit_kernel.Config.t -> Kit_spec.Spec.t -> Kit_abi.Program.t list -> profiles

val build_map : profiles -> Kit_profile.Accessmap.t
(** Writer entries are unrestricted; reader entries are kept only when
    the reading syscall accesses a protected resource. *)

val total_flows : Kit_profile.Accessmap.t -> int
(** The number of unclustered data-flow test cases — the DF row of
    Table 4: one per (write site, read site) pair on a shared address. *)

(** {2 Streaming profiler}

    One program at a time, for every campaign's front end. A program's filtered
    access list is identical to its contribution to {!build_map} — the
    profiler reloads the same snapshot per program, and both paths apply
    the same reader-protection filter. *)

type profiler

val profiler : Kit_kernel.Config.t -> Kit_spec.Spec.t -> profiler
(** Boot a profiling environment shared across [profile_program_full]
    calls. *)

val profile_program_full :
  profiler -> Kit_abi.Program.t ->
  Kit_profile.Stackrec.access list * Kit_profile.Stackrec.access list
(** [(raw, filtered)] accesses of one program. The filtered list is
    ready for {!Kit_profile.Accessmap.add} or online clustering; the raw
    list is what the coverage ledger's "touched" rung counts — it
    includes reader accesses the spec filter drops. *)

val profiler_vars : profiler -> Kit_kernel.Heap.varinfo list
(** The streaming profiler's kernel variable registry (boot order). *)
