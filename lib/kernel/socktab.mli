(** The global socket table.

    Socket ids are allocated from a per-boot random base, which is why
    receiver programs cannot name a sender's socket with a constant —
    the property that makes known bug G undetectable (paper,
    section 6.2). *)

type sock = {
  id : int;
  dom : int;                        (** socket domain (ABI constant) *)
  netns : int;
  userns : int;
  owner : int;                      (** owning pid *)
  bound : int option;               (** bound port *)
  cookie : int option;
  assoc : int option;               (** SCTP association id *)
  alg : string option;              (** AF_ALG algorithm *)
}

type t

val init : Heap.t -> t

val randomize_base : t -> Krng.t -> unit
(** Called once per boot, after the entropy source is seeded. *)

val create :
  Ctx.t -> t -> dom:int -> netns:int -> userns:int -> owner:int -> sock

val find : Ctx.t -> t -> int -> sock option
val update : Ctx.t -> t -> sock -> unit
val remove : Ctx.t -> t -> int -> unit
