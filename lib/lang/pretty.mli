(** Canonical pretty-printer for Retreet programs.

    [print_prog] emits concrete [.retreet] syntax that reparses to a
    structurally identical AST:

      [Parser.parse_program (print_prog p)] equals [p] up to [fline]

    for every {e canonical} program.  Canonical means: the program was
    produced by [Parser.parse_program], or built with the same invariants —
    no negative [Num] literals, comparisons are [Gt0 (Sub (a, b))], no two
    adjacent [Straight] blocks where the second is unlabelled (the parser
    would merge them), and [SSeq]/[SPar] spines are left-nested.  All
    bundled programs and everything [lib/factory] generates are canonical;
    the property is enforced by the qcheck round-trip suite. *)

val print_prog : Ast.prog -> string
(** Deterministic byte-for-byte rendering (2-space indent, LF newlines). *)

val equal_prog : Ast.prog -> Ast.prog -> bool
