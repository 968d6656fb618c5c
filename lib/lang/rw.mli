(** Read/write analysis at the block level (Appendix B of the paper).

    A location is a field of a node reachable from the frame's node by a
    pointer path, or a local variable of the frame.  Reads occurring in
    the branch conditions guarding a block are charged to the block.  A
    [return] additionally performs a {e caller write} into the variables
    receiving the returned vector; which variables those are depends on
    the call site, so it is kept symbolic here ([ret_write]) and resolved
    by the encoder. *)

type site =
  | SField of Ast.lexpr * string
      (** field of the node at a path from the frame node *)
  | SVar of string  (** local variable of the frame *)

type access = {
  reads : site list;
  writes : site list;
  ret_write : bool;  (** the block returns values to the caller's frame *)
}

val of_block : Blocks.t -> int -> access
(** Access sets of a non-call block.
    @raise Invalid_argument on a call block. *)
