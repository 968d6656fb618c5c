(** Well-formedness of Retreet programs (Section 2.1).

    Checks the restrictions that make the MSO encoding possible — no
    same-node recursion (the stay-call graph must be acyclic), plus
    hygiene: [Main] exists, callees are defined with matching arities,
    return arities are consistent, block labels are unique and none is
    [main] (the encoding's name for Main's record), and every dereference
    [le.dir] is guarded by [le != nil] on its path. *)

type error = string

val check : Ast.prog -> (Blocks.t, error list) result
(** All errors are collected, not just the first. *)

val check_exn : Ast.prog -> Blocks.t
(** @raise Invalid_argument listing the errors. *)
