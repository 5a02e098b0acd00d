(** Bounds-based non-determinism handling — the extension the paper
    proposes for testing the time namespace (section 7): learn the valid
    value bounds caused by benign non-determinism through dynamic
    profiling, and flag interference as a bound violation. *)

type t = {
  label : string;
  children : t list;
  kind : kind;
}

and kind =
  | Exact of string          (** deterministic leaf: must match *)
  | Interval of int * int    (** numeric leaf: must fall within *)
  | Unchecked                (** varying non-numeric leaf, or varying shape *)
  | Interior

val learn : Ast.t -> Ast.t list -> t
(** [learn reference alternatives] builds a bounds tree from
    receiver-only runs at different clock bases. A numeric leaf's
    interval is the observed one widened on each side by three times
    its spread, and by at least 64. *)

type violation = {
  path : string list;
  expected : kind;
  actual : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check : t -> Ast.t -> violation list
