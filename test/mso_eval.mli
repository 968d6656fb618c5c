(** The reference semantics of {!Mso} formulas, which the tests check
    compiled automata and encoded formulas against. *)

val eval :
  Treeauto.tree -> (Mso.var * int list list) list -> Mso.formula -> bool
(** Whether a formula holds on a tree when each variable denotes a set of
    positions (paths from the root, [0] = left).  A position argument
    denotes a position only when its set is a singleton, whatever the
    variable's kind.  Exponential in quantifier depth: for small trees. *)
