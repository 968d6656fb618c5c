(** Monadic second-order logic over finite binary trees, decided by
    compilation to the tree automata of {!Treeauto}.

    The signature follows Section 4 of the paper: a unique [root], two
    successors [left]/[right], and the [isNil] predicate — interpreted
    here as "the position is a leaf", since in the Retreet heap encoding
    the leaves of the model are exactly the [nil] nodes.  The constructors
    are the fragment [Encode] builds, plus [True] and [Sing], which this
    module builds itself; every quantified variable is first-order.

    First-order variables range over tree positions and are encoded as
    singleton second-order variables in the standard way.  Every atom
    that reads a first-order variable (declared [FO], or bound by
    [Exists1]/[Forall1]) is compiled restricted to the assignments under
    which that variable is a singleton, so no intermediate automaton
    tracks a set-valued one.  A position argument (the element of [Mem],
    the arguments of [LeftOf], [RightOf], [Root] and [IsNil], the [z] of
    [AgreeAbove]) is read as a singleton whatever its kind, as the test
    suite's reference evaluator ([test/mso_eval.ml]) reads it.  The
    quantifiers range over singletons, and {!compile} conjoins the
    singleton constraint for every declared first-order free variable, so
    the automaton of {!compile} accepts exactly the models of its
    formula.

    The compiler caches one automaton per alpha-equivalence class of
    subformulas in the current solver context.  Its key is read off each
    node's slot (see {!formula}), which the compiler fills once in the
    node's life, so a lookup does not walk the subformula; every hit is
    confirmed by an exact comparison, never by the hash alone. *)

type var = string

type slot
(** What the compiler caches about a node; see {!formula}. *)

type node =
  | True
  | False
  | EmptySet of var  (** X = ∅ *)
  | Sing of var  (** X is a singleton *)
  | Mem of var * var  (** x ∈ X *)
  | EqPos of var * var  (** x = y; over two sets, X = Y *)
  | LeftOf of var * var  (** y = left(x) *)
  | RightOf of var * var  (** y = right(x) *)
  | Root of var  (** x is the root *)
  | IsNil of var  (** x is a leaf (nil node) *)
  | AgreeAbove of var * (var * var) list * (var * var) list
      (** [AgreeAbove (z, strict, incl)]: at every {e strict} ancestor [v]
          of [z], [v ∈ X ⇔ v ∈ Y] for each [(X,Y)] in [strict @ incl]; at
          [z] itself the agreement holds for the [incl] pairs.  Compiled as
          a single small automaton; implements the record-agreement prefix
          of the paper's [Consistent] predicate (record labels agree
          strictly above the divergence, condition labels also at it). *)
  | Not of formula
  | And of formula list
  | Or of formula list
  | Imp of formula * formula
  | Iff of formula * formula
  | Exists1 of var * formula  (** first-order ∃ *)
  | Forall1 of var * formula

and formula = private { node : node; mutable slot : slot }
(** A node and its slot.  The slot caches the node's free variables, in
    order of first occurrence, and a hash of its shape with every
    variable numbered by position; the compiler fills it from the
    children's slots the first time it needs it and keeps it, so a node
    is walked once in its life, however often the compile cache looks up
    its ancestors.  Build formulas with {!mk} and the smart constructors
    below, and read them through [.node].

    The slot is a cache: whether it is filled yet differs between equal
    formulas.  So never decide anything by polymorphic [=], [<>] or
    [compare] on formulas; match on [.node] instead. *)

val mk : node -> formula
(** A formula of the node, its slot not filled yet.  Counts one
    {!Engine.note_formula}. *)

val true_ : formula
val false_ : formula

(** {1 Smart constructors} *)

val and_l : formula list -> formula
(** Conjunction with constant folding and flattening. *)

val or_l : formula list -> formula

val not_ : formula -> formula

val imp : formula -> formula -> formula

val iff : formula -> formula -> formula

(** {1 Deciding} *)

type kind = FO | SO

type env = (var * kind) list
(** Declaration of the free variables of a formula, in track order. *)

val free_vars : formula -> var list
(** Free variables, in order of first occurrence (read off the slot). *)

type model = {
  tree : Treeauto.tree;  (** witness tree; labels are track sets *)
  assignment : (var * int list list) list;
      (** for each free variable, the positions (paths from the root, [0] =
          left, [1] = right) in its interpretation *)
}

val solve : env -> formula -> model option
(** Satisfiability: [Some model] gives a minimal-height witness
    interpretation; [None] means unsatisfiable.
    @raise Invalid_argument if a free variable of the formula is not
    declared in the environment. *)

val satisfiable : env -> formula -> bool

val compile : env -> formula -> Treeauto.t
(** The automaton recognizing exactly the models of the formula (with the
    environment's variables as tracks, in order).  {!solve} decides
    through it; it is exposed for the benchmarks and the tests, which
    read the automaton itself. *)
