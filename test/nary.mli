(** N-ary traversals and their left-child/right-sibling compilation.

    The paper's CSS traversals are written over n-ary syntax trees
    ("for each child p: F(n.p)") and converted by hand to binary LCRS
    form; this module mechanizes the conversion: describe each traversal
    as a guarded per-node action applied pre- or post-descent, and compile
    the pipeline to a Retreet program over the LCRS encoding ([n.l] =
    first child, [n.r] = next sibling).

    No part of the pipeline needs it: the bundled case study is the
    hand-converted program, and test_transform uses this module as the
    oracle that checks it. *)

(** When the per-node action runs relative to the recursive descent. *)
type order =
  | Pre
  | Post

(** A guarded per-node action: [if (guard) assigns]. *)
type action = {
  guard : Ast.bexpr option;  (** [None] = unconditional *)
  assigns : Ast.assign list;
  guard_label : string option;
  skip_label : string option;
}

type spec = {
  name : string;
  order : order;
  action : action;
}

val compile_pipeline : spec list -> Ast.prog
(** A full program: the traversals plus a [Main] running them in order. *)

val css_specs : spec list
(** The paper's three CSS minification traversals (Figure 8) as specs;
    [compile_pipeline css_specs] reproduces
    [Programs.css_minification_seq]. *)
