(** Test programs: finite sequences of system calls with resource-typed
    arguments — the unit of input that KIT profiles and pairs into test
    cases (paper, section 4.1). *)

type call = {
  sysno : Sysno.t;
  args : Value.t list;
}

type t

val make : call list -> t
val calls : t -> call list
val length : t -> int
val nth : t -> int -> call option

val equal : t -> t -> bool

val pp_call : Format.formatter -> call -> unit
val to_string : t -> string

val hash : t -> int
(** A stable digest used to cache per-program artefacts (profiles,
    non-determinism masks) across the pipeline. *)

val result_types : t -> Fdtype.t option array
(** Static resource typing: the fd type produced by each call, by
    abstract interpretation of constant arguments. Entry [i] is [None]
    when call [i] produces no (known) resource. *)

val uses_types : Fdtype.t option array -> call -> Fdtype.t list
(** The fd types consumed by a call, resolved against {!result_types}
    of its program. *)

val remove_call : t -> int -> t
(** [remove_call t i] drops the [i]-th call and remaps resource
    references: references to later calls shift down by one; references
    to the removed call become the invalid fd [-1] (the kernel then
    fails them with [EBADF]). Used by Algorithm 2's RemoveCall. *)

val append : t -> t -> t
(** Concatenate two programs, shifting the second's resource references
    past the first's calls. *)
