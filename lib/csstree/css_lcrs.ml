(** Left-child/right-sibling binarization of CSS syntax trees.

    CSS documents are n-ary trees (stylesheet → rules → declarations →
    value components); MONA-style tree logics and the Retreet heap are
    binary.  The paper handles this by converting ASTs "to left-child
    right-sibling binary trees and then simplify the traversals to match
    Retreet syntax" — this module performs that conversion, producing a
    {!Heap.tree} whose nodes carry the integer fields the Retreet CSS
    program ([Programs.css_minification_seq]) reads and writes:

    - [kind]: 1 when the node is a value component eligible for
      ConvertValues (a dimension), 0 otherwise;
    - [prop]: 1 when the node belongs to a [font-weight] declaration;
    - [value]: an abstract integer size for the node (the serialized
      length for components), which the passes shrink.

    The conversion keeps a side table from LCRS paths back to the
    document, so a run of the verified Retreet traversal can be compared
    against the native minifier. *)

(* n-ary view of the document *)
type ntree = { label : string; fields : (string * int) list; children : ntree list }

let rec component_node ~in_font_weight (c : Css_ast.component) : ntree =
  let render x = Fmt.str "%a" Css_ast.pp_component x in
  match c with
  | Css_ast.Dim _ ->
    {
      label = "dim";
      fields =
        [ ("kind", 1);
          ("prop", (if in_font_weight then 1 else 0));
          ("value", String.length (render c)) ];
      children = [];
    }
  | Css_ast.Keyword k ->
    {
      label = "kw:" ^ k;
      fields =
        [ ("kind", 0);
          ("prop", (if in_font_weight then 1 else 0));
          ("value", String.length k) ];
      children = [];
    }
  | Css_ast.Str s ->
    {
      label = "str";
      fields = [ ("kind", 0); ("prop", 0); ("value", String.length s) ];
      children = [];
    }
  | Css_ast.Func (name, args) ->
    {
      label = "fn:" ^ name;
      fields = [ ("kind", 1); ("prop", 0); ("value", String.length name) ];
      children = List.map (component_node ~in_font_weight) args;
    }

let declaration_node (d : Css_ast.declaration) : ntree =
  let fw = d.property = "font-weight" in
  {
    label = "decl:" ^ d.property;
    fields = [ ("kind", 0); ("prop", (if fw then 1 else 0));
               ("value", String.length d.property) ];
    children = List.map (component_node ~in_font_weight:fw) d.value;
  }

let rule_node (r : Css_ast.rule) : ntree =
  {
    label = "rule";
    fields = [ ("kind", 0); ("prop", 0); ("value", String.length r.selector) ];
    children = List.map declaration_node r.declarations;
  }

let of_stylesheet (s : Css_ast.stylesheet) : ntree =
  { label = "sheet"; fields = [ ("kind", 0); ("prop", 0); ("value", 0) ];
    children = List.map rule_node s }

(** The left-child/right-sibling encoding: the binary left child is the
    first child, the binary right child is the next sibling. *)
let rec to_lcrs (t : ntree) ~(siblings : ntree list) : Heap.tree =
  let left =
    match t.children with
    | [] -> Heap.Nil
    | c :: cs -> to_lcrs c ~siblings:cs
  in
  let right =
    match siblings with
    | [] -> Heap.Nil
    | s :: ss -> to_lcrs s ~siblings:ss
  in
  Heap.node ~fields:t.fields left right

let lcrs_of_stylesheet (s : Css_ast.stylesheet) : Heap.tree =
  to_lcrs (of_stylesheet s) ~siblings:[]

(** Sum of the abstract [value] sizes over the binarized document — the
    quantity the abstract (Retreet-level) minification passes reduce;
    compare before and after interpreting the verified traversal. *)
let abstract_size (t : Heap.tree) : int =
  List.fold_left
    (fun acc (node, _) -> acc + Heap.get_field node "value")
    0 (Heap.positions t)
