(** Reproduction of documented namespace isolation bugs (paper,
    section 6.2, Table 3): each historical bug gets the kernel release
    it lives in and a hand-written reproducer pair, pushed through the
    regular detection pipeline. Bugs A-E must be detected; F and G are
    the documented bugs functional interference testing cannot detect
    and must be missed. *)

type case = {
  bug : Kit_kernel.Bugs.id;
  label : string;                    (** "A".."G" *)
  kernel : string;
  namespace : string;
  sender_host : bool;
  sender : string;                   (** syzlang reproducers *)
  receiver : string;
  expect_detected : bool;
}

val cases : case list

type outcome = {
  case : case;
  detected : bool;
  as_expected : bool;
}

val reproduce_all : ?spec:Kit_spec.Spec.t -> ?reruns:int -> unit -> outcome list

val detected_count : outcome list -> int
(** The headline number; the paper reproduces 5 of 7. *)
