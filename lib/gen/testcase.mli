(** A functional interference test case: a sender and a receiver program
    (by corpus index), plus — for data-flow-generated cases — the
    witness inter-container data flow that motivated the pairing. *)

type flow = {
  addr : int;
  w_ip : int;
  r_ip : int;
  w_stack : int list;        (** innermost first *)
  r_stack : int list;
  r_sys_index : int;         (** receiver syscall performing the read *)
}

type t = {
  sender : int;              (** corpus index *)
  receiver : int;
  flow : flow option;        (** [None] for randomly generated cases *)
}

val compare : t -> t -> int
(** Total order: sender index, then receiver index, then the witness
    flow. Totality matters: representative selection takes the minimum
    over candidates discovered in hash-table order, and only a total
    order makes batch and streaming clustering agree on ties. *)

val fingerprint : t -> string
(** The key of a representative's result in a case-result log or a
    stream's memo: a streaming FNV hash of the fields, 16 hex digits,
    identical across processes. Corpus generation is prefix-stable, so
    a representative hashes to the same key in a resumed or grown
    campaign. *)

val pp : Format.formatter -> t -> unit
