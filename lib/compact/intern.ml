(* Hash-consed strings. [intern] returns one canonical copy per distinct
   string contents, so equality between two interned strings is almost
   always decided by the runtime's pointer check inside
   [caml_string_equal] — the packed trace AST relies on this to make
   label/value comparison O(1) in practice.

   The pool is per-domain (Domain.DLS), not global-with-a-mutex: every
   decoded trace node interns two strings, and a shared table would
   serialise the multicore execution hot path. Traces are decoded,
   masked and compared within one domain, so per-domain canonical copies
   preserve every pointer-equality fast path that matters; strings that
   cross domains still compare correctly, just byte-by-byte.

   The pool is capped: past [max_pool] distinct strings a lookup miss
   returns its argument uninterned instead of growing the table, so a
   pathological workload degrades to the pre-interning behaviour rather
   than leaking memory. *)

let max_pool = 1 lsl 20

type pool = (string, string * int) Hashtbl.t

let key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

(* Canonical copy plus its content hash (computed once per distinct
   string per domain). *)
let intern_hashed s =
  let pool = Domain.DLS.get key in
  match Hashtbl.find_opt pool s with
  | Some entry -> entry
  | None ->
    let entry = (s, Fnv.hash_string s) in
    if Hashtbl.length pool < max_pool then Hashtbl.add pool s entry;
    entry

let intern s = fst (intern_hashed s)

(* Canonical decimal strings for small ints — syscall returns, errnos,
   stat fields and line indices are almost always tiny, and this skips
   both the [string_of_int] allocation and the pool lookup. The table is
   immutable after module initialisation, so sharing it across domains
   is safe. *)

let small_lo = -64
let small_hi = 1024

let small =
  Array.init (small_hi - small_lo + 1) (fun i -> string_of_int (i + small_lo))

let string_of_small_int n =
  if n >= small_lo && n <= small_hi then Array.unsafe_get small (n - small_lo)
  else string_of_int n
