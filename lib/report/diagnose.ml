(* Algorithm 2 of the paper: identify the (sender, receiver) system call
   pairs responsible for a report's functional interference.

   Sender calls are removed one at a time in inverse order; interference
   that disappears is attributed to the removed call, paired with the
   *first* receiver call it interfered with (later receiver divergence is
   usually a cascade through data dependencies). *)

module Program = Kit_abi.Program

type pair = {
  sender_index : int;           (* index in the original sender program *)
  receiver_index : int;
}

module Int_set = Set.Make (Int)

(* [test ~sender ~receiver] must return the interfered receiver indices
   of the (possibly modified) test case — Runner.test_interference glued
   with the filters. *)
let culprits ~test ~sender ~receiver ~interfered =
  let pairs = ref [] in
  let remaining = ref (Int_set.of_list interfered) in
  let ps = ref sender in
  let n = Program.length sender in
  let i = ref (n - 1) in
  while !i >= 0 && not (Int_set.is_empty !remaining) do
    ps := Program.remove_call !ps !i;
    let interfered' = Int_set.of_list (test ~sender:!ps ~receiver) in
    let delta = Int_set.diff !remaining interfered' in
    if not (Int_set.is_empty delta) then begin
      pairs :=
        { sender_index = !i; receiver_index = Int_set.min_elt delta } :: !pairs;
      remaining := Int_set.diff !remaining delta
    end;
    decr i
  done;
  List.rev !pairs
