(* Packed bitsets over small dense int universes — kernel addresses and
   (sender, receiver) pair indices. One word holds [word_bits] members,
   so intersection and counting run O(words) instead of O(elements)
   with no per-member allocation. Sets grow on [add]; all read
   operations treat bits beyond a set's current capacity as absent. *)

let word_bits = Sys.int_size (* 63 on 64-bit *)

type t = { mutable words : int array }

let create capacity =
  let nwords = max 1 ((max 0 capacity + word_bits - 1) / word_bits) in
  { words = Array.make nwords 0 }

let ensure t bit =
  let need = (bit / word_bits) + 1 in
  let have = Array.length t.words in
  if need > have then begin
    let words = Array.make (max need (2 * have)) 0 in
    Array.blit t.words 0 words 0 have;
    t.words <- words
  end

let mem t bit =
  if bit < 0 then invalid_arg "Bitset.mem: negative bit";
  let w = bit / word_bits in
  w < Array.length t.words
  && t.words.(w) land (1 lsl (bit mod word_bits)) <> 0

let add t bit =
  if bit < 0 then invalid_arg "Bitset.add: negative bit";
  ensure t bit;
  let w = bit / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (bit mod word_bits))

(* Byte-table popcount: safe on 63-bit words, no 64-bit mask literals. *)
let pop_table =
  Bytes.init 256 (fun i ->
      let rec count n = if n = 0 then 0 else (n land 1) + count (n lsr 1) in
      Char.chr (count i))

let popcount x =
  let rec go acc x =
    if x = 0 then acc
    else go (acc + Char.code (Bytes.unsafe_get pop_table (x land 0xff))) (x lsr 8)
  in
  go 0 x

let cardinal t =
  Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let inter_count a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let iter f t =
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to word_bits - 1 do
          if w land (1 lsl b) <> 0 then f ((wi * word_bits) + b)
        done)
    t.words
