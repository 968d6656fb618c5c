(** Source-to-source transformations over Retreet programs.

    Each transformation returns the rewritten program together with the
    non-call block map aligning it with the original — exactly the input
    {!Analysis.check_equivalence} needs — so the pattern is:
    {e transform proposes, the framework verifies}. *)

type error = string

val fuse :
  Ast.prog -> string list -> (Ast.prog * (string * string) list, error) result
(** [fuse prog names] fuses the named post-order traversals — each of the
    shape [F(n) { if (n == nil) { nil } else { F child; F child; tail } }]
    with a call-free [tail], recursing into both children in either order
    — into a single traversal [Fused] performing every tail, in pass
    order, at each node.  [Main] must call the traversals sequentially in
    the given order; its calls are replaced by one call to the fused
    traversal.  Returns the new program and the block map ([tail] blocks
    keep their labels; the nil blocks all map to the fused nil block).

    The fused traversal always visits left-then-right; whether that
    reordering (and the fusion itself) is legal is decided by the
    verification, not assumed here. *)
