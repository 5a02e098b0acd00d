(** The report filtering funnel (paper, sections 4.3 and 6.4; Table 5):
    raw divergence makes a candidate an {e initial} report; candidates
    whose divergence disappears under non-determinism masking are
    filtered; candidates whose surviving diverging calls never touch a
    protected resource are filtered by the specification; the rest are
    reported, restricted to the protected diverging calls. *)

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

val funnel_create : unit -> funnel

val protected_interfered :
  Kit_spec.Spec.t -> Kit_abi.Program.t -> int list -> int list
(** Restrict interfered receiver call indices to protected calls. *)

val classify :
  Kit_spec.Spec.t ->
  testcase:Kit_gen.Testcase.t ->
  sender:Kit_abi.Program.t ->
  receiver:Kit_abi.Program.t ->
  Kit_exec.Runner.outcome -> funnel -> verdict

val classify_concurrent :
  Kit_spec.Spec.t ->
  testcase:Kit_gen.Testcase.t ->
  sender:Kit_abi.Program.t ->
  receiver:Kit_abi.Program.t ->
  Kit_exec.Runner.concurrent -> Report.t option
(** Classify one schedule-search finding: non-determinism masking
    already happened inside the search, so only the resource stage
    applies; [None] when no diverging call touches a protected
    resource. Leaves the sequential funnel untouched (Table 5 accounts
    the sequential pipeline only). *)

val pp_funnel : Format.formatter -> funnel -> unit
(** Renders the Table 5 rows. *)
