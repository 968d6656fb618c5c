(** Symbolic speculative execution (Definitions 1 and 2 of the paper).

    Each function body is executed symbolically with its parameters as
    input symbols and each call's return values as ghost symbols (the
    speculative outputs [O] of Definition 1).  The result attaches to
    every branch condition its weakest precondition transported to the
    function entry (the paper's Figure 12): either a structural nil test
    or a linear-arithmetic atom over the entry symbols.  Joins after
    branching control flow introduce fresh (function-locally numbered)
    join symbols, an over-approximation that keeps downstream analyses
    sound. *)

type sym_cond =
  | SNil of Ast.lexpr  (** the condition [path == nil], structural *)
  | SArith of Lin.t  (** the condition [e > 0] over entry symbols *)

type t = {
  info : Blocks.t;
  cond_sym : sym_cond array;  (** indexed by condition id *)
}

val analyze : Blocks.t -> t

val cond_atom : t -> int -> polarity:bool -> Lia.atom option
(** The weakest-precondition form of a condition as a LIA atom; [None]
    for structural nil conditions. *)

val cond_nil : t -> int -> Ast.lexpr option
(** The nil-test location of a condition, if structural. *)
