(* The plain record layout trace nodes had before packing — the
   representation the reference algorithms of the compact-representation
   tests run on, and a plain-data view of a packed trace that compares
   by [=] on every label, value, det flag and child. Packed traces have
   values on leaves only. *)

module Ast = Kit_trace.Ast

type ast = {
  l_label : string;
  l_value : string;
  l_det : bool;
  l_children : ast list;
}

let rec of_legacy (l : ast) =
  if l.l_children = [] then Ast.leaf ~det:l.l_det l.l_label l.l_value
  else Ast.node ~det:l.l_det l.l_label (List.map of_legacy l.l_children)

let rec to_legacy (t : Ast.t) =
  { l_label = t.Ast.label; l_value = t.Ast.value; l_det = t.Ast.det;
    l_children = List.map to_legacy t.Ast.children }
