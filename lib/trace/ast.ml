(* Abstract syntax trees of system call traces (paper, section 4.3.2).
   Comparing ASTs instead of trace text lets the analysis ignore
   individual non-deterministic result fields (a timestamp inside an
   otherwise deterministic stat buffer) without discarding whole calls.
   Each node carries a [det] flag, true by default; the non-determinism
   pass clears it on nodes whose value or child count varies across
   re-executions.

   The representation is packed for the comparison hot path. Labels and
   values are hash-consed through [Kit_compact.Intern], so equality
   between nodes built in the same domain is normally decided by the
   runtime's pointer check. Every node precomputes:

     [nkids]  child count            — shallow comparison without List.length
     [size]   subtree node count     — O(1) size for report statistics
     [ndet]   subtree non-det count  — O(1) count_nondet, plus an
                                       all-deterministic fast path for masking
     [hash]   structural content hash over label, value and children
              (det flags excluded)

   The content hash is computed from string *contents* (via the interner)
   and child hashes, so it is identical across domains and processes for
   structurally identical trees. Because it ignores det flags, and a
   comparison diff can only arise from a value or child-count mismatch,
   [hash] equality implies "no diffs" — which is what lets Compare and
   Nondet skip whole subtrees in O(1).

   The record is [private] in the interface: construction goes through
   the smart constructors so the derived fields can never go stale. *)

type t = {
  label : string;
  value : string;
  det : bool;
  nkids : int;
  size : int;
  ndet : int;
  hash : int;
  children : t list;
}

let mk ~det label value children =
  let label, lhash = Kit_compact.Intern.intern_hashed label in
  let value, vhash = Kit_compact.Intern.intern_hashed value in
  let nkids, size, kids_ndet, h =
    List.fold_left
      (fun (n, s, nd, h) c ->
        (n + 1, s + c.size, nd + c.ndet, Kit_compact.Fnv.int h c.hash))
      (0, 1, 0, Kit_compact.Fnv.init)
      children
  in
  let h = Kit_compact.Fnv.int h lhash in
  let h = Kit_compact.Fnv.int h vhash in
  let h = Kit_compact.Fnv.int h nkids in
  { label; value; det; nkids; size;
    ndet = (kids_ndet + if det then 0 else 1);
    hash = Kit_compact.Fnv.to_int h; children }

let leaf ?(det = true) label value = mk ~det label value []
let node ?(det = true) label children = mk ~det label "" children

let with_det t det =
  if Bool.equal t.det det then t
  else { t with det; ndet = (t.ndet + if det then -1 else 1) }

(* Rebuild a node around re-flagged copies of its own children (the
   masking passes): label, value, shape — and therefore [hash], [size]
   and [nkids] — are unchanged, only det flags move. *)
let with_flags t ~det children =
  let kids_ndet = List.fold_left (fun acc c -> acc + c.ndet) 0 children in
  { t with det; ndet = (kids_ndet + if det then 0 else 1); children }

let rec equal a b =
  a == b
  || a.hash = b.hash && Bool.equal a.det b.det && a.ndet = b.ndet
     (* hash equality covers labels, values and shape; when both
        subtrees are all-deterministic the det flags cannot differ
        either, so only mixed-flag trees need the recursive walk *)
     && ((a.ndet = 0 && b.ndet = 0) || List.equal equal a.children b.children)

let all_det t = t.ndet = 0

