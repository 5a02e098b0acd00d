(* Non-deterministic result identification (paper, section 4.3.2): the
   receiver program is re-run several times with different starting
   times; nodes whose value or child count varies across runs get their
   det flag cleared, and the flags are then applied to the traces under
   comparison so Algorithm 1 skips them.

   Child lists are walked pairwise (one pass over each alternative's
   children alongside the reference's), never indexed with List.nth —
   the old per-index lookups made both passes quadratic in the child
   count. Hash equality gives both passes a whole-subtree fast path:
   alternatives that hash like the reference cannot disagree anywhere
   below, and an all-deterministic mask has no flags to transfer. *)

(* Build a det-flag mask from a reference run and alternative runs of the
   same program. When child counts disagree the node itself becomes
   non-deterministic and descent stops — exactly mirroring where
   Algorithm 1 would halt. *)
let rec mark reference alternatives =
  if
    List.for_all
      (fun alt -> alt == reference || alt.Ast.hash = reference.Ast.hash)
      alternatives
    (* structurally identical runs disagree nowhere: the mask is the
       reference unchanged *)
  then reference
  else
    let disagrees alt =
      (not (String.equal alt.Ast.value reference.Ast.value))
      || alt.Ast.nkids <> reference.Ast.nkids
    in
    if List.exists disagrees alternatives then Ast.with_det reference false
    else
      (* every alternative has the reference's child count here, so the
         parallel head/tail walk below never runs dry *)
      let rec walk rkids alts_kids =
        match rkids with
        | [] -> []
        | r :: rrest ->
          let heads = List.map List.hd alts_kids in
          let tails = List.map List.tl alts_kids in
          mark r heads :: walk rrest tails
      in
      let children =
        walk reference.Ast.children
          (List.map (fun alt -> alt.Ast.children) alternatives)
      in
      Ast.with_flags reference ~det:reference.Ast.det children

(* Apply a mask's det flags to [tree] positionally. Children beyond the
   mask's shape keep their own flags: a deterministic extra line added by
   a sender must stay visible to the comparison. *)
let rec apply_mask mask tree =
  let det = tree.Ast.det && mask.Ast.det in
  if not det then Ast.with_det tree false
  else if Ast.all_det mask then tree
  else
    let rec walk mkids tkids =
      match (mkids, tkids) with
      | _, [] -> []
      | [], extra -> extra
      | m :: ms, c :: cs -> apply_mask m c :: walk ms cs
    in
    Ast.with_flags tree ~det (walk mask.Ast.children tree.Ast.children)
