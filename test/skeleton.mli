(** MSO formulas as plain trees, without their slots.

    A formula's slot is a cache that one of two equal formulas may have
    filled and the other not, so tests compare formulas by this structure
    instead of by polymorphic equality. *)

type t = Node of string * Mso.var list * t list
(** A node's constructor, its variables and its children.  Each
    constructor of [Mso.node] has its own tag, named in a match with no
    wildcard, which [test_encode]'s fragment case relies on. *)

val of_formula : Mso.formula -> t

val equal : Mso.formula -> Mso.formula -> bool
(** Structural equality, blind to slots. *)
