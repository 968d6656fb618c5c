(** Block extraction and the relations of the paper's Appendix B.

    Code blocks — function calls or maximal straight-line runs of
    assignments — are the atomic units of Retreet programs: an execution
    is a sequence of {e iterations}, each running a non-call block on a
    tree node.  This module numbers every block and atomic branch
    condition, records syntactic positions, guard paths ([Path(t)]) and
    sequenced predecessors, and computes the relations between blocks:
    [s / t] (s is a call to the function containing t), [s ~ t] (same
    function) and, within a function, [s ≺ t] / [s ↑ t] / [s ‖ t]
    (Lemma 2: exactly one holds). *)

type node_kind = KSeq | KIf | KPar

type pos = (node_kind * int) list
(** Path from the function body's root in the statement syntax tree. *)

type cond_info = {
  cid : int;
  cfunc : string;  (** enclosing function *)
  cond : Ast.bexpr;  (** atomic: [IsNilB _] or [Gt0 _] (negations stripped) *)
  cpos : pos;
  cguards : (int * bool) list;
      (** conditions (with polarity) guarding this condition itself *)
}

type block_info = {
  id : int;
  label : string;  (** user label or generated ["s<id>"] *)
  bfunc : string;  (** enclosing function *)
  block : Ast.block;
  bpos : pos;
  guards : (int * bool) list;
      (** [Path(t)]: condition ids with polarity, outermost first;
          polarity [true] means the positive atomic condition holds *)
  prefix : int list;
      (** blocks that execute before this one on its path within the
          function *)
}

(** Function bodies with blocks and conditions replaced by their ids —
    the execution-facing view used by the interpreter and the encoder. *)
type astmt =
  | ABlock of int
  | AIf of int option * bool * astmt * astmt
      (** condition id ([None] for a constant test), whether the source
          condition was negated, then- and else-branches *)
  | ASeq of astmt * astmt
  | APar of astmt * astmt

type t = {
  prog : Ast.prog;
  blocks : block_info array;  (** indexed by block id *)
  conds : cond_info array;  (** indexed by condition id *)
  func_blocks : (string * int list) list;  (** per function, in order *)
  func_conds : (string * int list) list;
  bodies : (string * astmt) list;  (** annotated body per function *)
}

val analyze : Ast.prog -> t
(** Number blocks and conditions in source order (matching the paper's
    numbering of the running example). *)

(** {1 Accessors} *)

val block : t -> int -> block_info

val cond : t -> int -> cond_info

val nblocks : t -> int

val all_blocks : t -> block_info list

val blocks_of_func : t -> string -> int list

val conds_of_func : t -> string -> int list

val is_call : t -> int -> bool

val call_of : t -> int -> Ast.call
(** @raise Invalid_argument on a non-call block. *)

val all_calls : t -> int list

val all_noncalls : t -> int list

val block_by_label : t -> string -> block_info option

(** {1 Relations} *)

val calls : t -> int -> int -> bool
(** [calls t s q]: the paper's [s / q]. *)

val callers_of : t -> int -> int list
(** Call blocks [s] with [s / q]. *)

val same_func : t -> int -> int -> bool
(** The paper's [s ~ q]. *)

val func_reaches : t -> string -> string -> bool
(** [func_reaches t f g]: a chain of calls starting in a frame of function
    [f] can create a frame of [g] (reflexive: [f] reaches itself). *)

type order = Prec | Follows | Branch | Par

val order : t -> int -> int -> order
(** Relation between two distinct blocks of one function, determined by
    their least common ancestor in the statement tree (Lemma 2).
    @raise Invalid_argument unless [same_func] and distinct. *)

val parallel : t -> int -> int -> bool

val callee_blocks : t -> int -> int list
(** [callee_blocks t s]: the blocks [q] with [s / q], i.e. of the function
    call block [s] invokes; for [-1], the pseudo call creating the [Main]
    frame, the blocks of [Main]; [[]] for a non-call block. *)

val body_of : t -> string -> astmt
(** @raise Invalid_argument on an unknown function. *)
