(** Monadic second-order logic over finite binary trees, decided by
    compilation to the tree automata of {!Treeauto}.

    The signature follows Section 4 of the paper: a unique [root], two
    successors [left]/[right], the ancestor relation [reach] (the reflexive
    transitive closure of the successors), and the [isNil] predicate —
    interpreted here as "the position is a leaf", since in the Retreet heap
    encoding the leaves of the model are exactly the [nil] nodes.

    First-order variables range over tree positions and are encoded as
    singleton second-order variables in the standard way.  Every atom
    that reads a first-order variable (declared [FO], or bound by
    [Exists1]/[Forall1]) is compiled restricted to the assignments under
    which that variable is a singleton, so no intermediate automaton
    tracks a set-valued one.  A position argument (the element of [Mem],
    the arguments of [LeftOf], [RightOf], [Reach], [Root] and [IsNil],
    the [z] of [AgreeAbove]) is read as a singleton whatever its kind, as
    {!eval} reads it.  The first-order quantifiers range over singletons,
    and {!compile} conjoins the singleton constraint for every declared
    first-order free variable, so the automaton of {!compile} accepts
    exactly the models of its formula. *)

type var = string

type formula =
  | True
  | False
  | Sub of var * var  (** X ⊆ Y *)
  | EqSet of var * var  (** X = Y *)
  | EmptySet of var  (** X = ∅ *)
  | Sing of var  (** X is a singleton *)
  | Mem of var * var  (** x ∈ X *)
  | EqPos of var * var  (** x = y *)
  | LeftOf of var * var  (** y = left(x) *)
  | RightOf of var * var  (** y = right(x) *)
  | Root of var  (** x is the root *)
  | IsNil of var  (** x is a leaf (nil node) *)
  | Reach of var * var  (** x is an ancestor of y (or x = y) *)
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
  | Exists2 of var * formula  (** second-order ∃ *)
  | Forall2 of var * formula
  | Exists1 of var * formula  (** first-order ∃ *)
  | Forall1 of var * formula

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
(** Free variables, sorted. *)

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
    environment's variables as tracks, in order).  Exposed for benchmarks
    and for the MONA-interop layer. *)

(** {1 Reference semantics (for testing)} *)

val eval :
  Treeauto.tree ->
  (var * int list list) list ->
  formula ->
  bool
(** Direct evaluation of a formula on a tree under an assignment of
    variables to position sets (first-order variables must be mapped to
    singleton sets).  Exponential in quantifier depth; intended as a test
    oracle on small trees. *)
