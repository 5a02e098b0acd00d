(* The kernel's entropy source. Deterministic for a given boot seed, but
   salted with the per-execution clock base so values that should be
   unpredictable across runs (e.g. globally allocated object ids, see the
   known-bug G limitation in section 6.2) genuinely vary. *)

type t = {
  state : int Var.t;
}

let init heap =
  { state = Var.alloc heap ~name:"krng.state" ~instrumented:false 0x243F6A88 }

let reseed t ~seed ~salt =
  Var.poke t.state ((seed * 0x9E3779B9) lxor (salt * 0x85EBCA6B) lor 1)

let next t =
  let s = Var.peek t.state in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  let s = s land max_int in
  Var.poke t.state s;
  s
