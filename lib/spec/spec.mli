(** The partial specification of namespace-protected resources (paper,
    section 4.3.1), in two encoding formats: file-descriptor type rules
    (a call is selected when it uses or returns a protected fd type) and
    callback checker functions.

    The specification is intentionally partial and incrementally
    refined: {!default} over-approximates /proc files outside /proc/net
    as protected, which is exactly what lets the minor-device-number and
    /proc/crypto false positives through — as the paper observes in
    section 6.4. {!refined} is the spec after that triage.

    A specification is plain data — fd types, {!Checker.t} values,
    syscall numbers and strings, no closure — so it compares with [=]
    and crosses the pool's pipes in an ordinary [Marshal] frame. *)

type t = {
  protected_fd_types : Kit_abi.Fdtype.t list;
  checkers : Checker.t list;
  seed_selectors : Kit_abi.Sysno.t list;
    (** user-highlighted seed calls, by syscall; every call with an
        explicit data dependency on one is selected (paper, section
        5.3) *)
  protected_var_prefixes : string list;
    (** subsystem prefixes of kernel shared variables that hold
        namespace-protected state ("net.", "ipc.", …) — the coverage
        ledger's universe *)
}

val default : t
val refined : t

val var_protected : t -> string -> bool
(** Is a kernel shared variable (by registration name, e.g.
    ["net.somaxconn"]) namespace-protected state? Prefix match against
    [protected_var_prefixes]. *)

val call_protected :
  t -> Kit_abi.Program.t -> Kit_abi.Fdtype.t option array -> int -> bool
(** Does call [i] access a namespace-protected resource? True when it
    returns or consumes a protected fd type, or a checker selects it.
    The array is [Program.result_types] of the program. *)

val protected_indices : t -> Kit_abi.Program.t -> int list

val with_seed_selector : t -> Kit_abi.Sysno.t -> t
(** Highlight seed calls: every call with an explicit data dependency on
    a call to the given syscall becomes selected, in addition to the
    existing rules. *)

val rule_counts : t -> int * int
(** (fd-type rules, checker functions). *)
