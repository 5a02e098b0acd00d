(** Algorithm 2 of the paper: identify the (sender, receiver) system
    call pairs responsible for a report's functional interference.

    Sender calls are removed one at a time in inverse order;
    interference that disappears is attributed to the removed call,
    paired with the first receiver call it interfered with (later
    receiver divergence is usually a cascade through data
    dependencies). *)

type pair = {
  sender_index : int;           (** index in the original sender program *)
  receiver_index : int;
}

val culprits :
  test:
    (sender:Kit_abi.Program.t -> receiver:Kit_abi.Program.t -> int list) ->
  sender:Kit_abi.Program.t ->
  receiver:Kit_abi.Program.t ->
  interfered:int list ->
  pair list
(** [test] must return the interfered receiver indices of the (possibly
    modified) test case — {!Kit_exec.Runner.test_interference} glued
    with the filters. *)
