(** The MSO encoding of Section 4: configurations as second-order labels
    on the heap tree, schedules as divergence predicates, and dependences
    as access-collision formulas.

    A {e configuration} (Section 3's stack-snapshot abstraction) is
    represented by:
    - a label [L_s] per {e call} block (and [main]) marking the nodes that
      carry a record of [s] — non-call blocks need no labels because the
      only non-call record is the current one, passed explicitly;
    - a label [C_c] per {e arithmetic} branch condition, marking the nodes
      where the transported weakest precondition of [c] holds; nil
      conditions are structural ([isNil]) and the match relations
      [K_{s,t}] are inlined as child-path constraints.

    Dependence is location-sensitive (same node {e and} same field, or
    same frame variable — with [return] modelled as a write to the
    caller's receiving variables), which sharpens the paper's
    node-granularity presentation and remains sound; pass
    [~field_sensitive:false] to {!make} for the paper's granularity. *)

(** A label namespace: which program copy ([tag]) and which of the two
    configurations of a query ([cfg]) the labels belong to. *)
type ns = { tag : string; cfg : int }

val main_id : int
(** Pseudo block id ([-1]) for the paper's [main] record. *)

type t
(** The encoder of one program for one query: its block tables, and a
    memo of the formulas built so far.  {!configuration},
    {!ordered_cases}, {!parallel_cases}, {!conflict_access} and
    {!dependence} build their result on the first call with given
    arguments and return that same (physically equal) value on every
    later one. *)

val make : ?field_sensitive:bool -> ?prune:bool -> Blocks.t -> t
(** Build the encoder state.
    @param field_sensitive match accesses by field as well as node
           (default [true]; [false] is the paper's node granularity)
    @param prune force labels of calls that cannot reach the current
           record to be empty (default [true]; [false] for ablations) *)

val consistent : t -> string -> (int * bool) list list
(** The paper's ConsistentCondSet of a function: every truth assignment
    to its arithmetic conditions whose weakest preconditions are jointly
    satisfiable.  @raise Not_found if the program has no such function. *)

(** {1 Label variables} *)

val block_var : t -> ns -> int -> string

val labels : t -> ns -> string list
(** All label variables of one namespace, in a stable order. *)

val label_env : t -> ns list -> Mso.env
(** The environment for a set of namespaces, with the label families
    {e interleaved} so the agreement guards of the schedule predicates
    stay linear-size BDDs. *)

(** {1 Formulas} *)

val configuration : t -> ns -> q:int -> x:Mso.var -> Mso.formula
(** [Configuration(L, C, q, x)]: the namespace's labels describe a valid
    (abstracted) configuration whose current record runs non-call block
    [q] on node [x]. *)

val divergence_triples : t -> Blocks.order -> (int * int * int) list
(** All [(s, t1, t2)] with [s / t1], [s / t2] and the given relation. *)

val ordered_cases :
  t ->
  ns ->
  ns ->
  current1:(int * Mso.var) option ->
  current2:(int * Mso.var) option ->
  Mso.formula list
(** The disjuncts of "configuration 1 is scheduled strictly before
    configuration 2", one per divergence group.  Callers decide
    satisfiability per disjunct — [sat (X ∧ ∨gs) = ∃g. sat (X ∧ g)] — so
    the union automaton (exponential for mutually recursive clusters) is
    never built. *)

val parallel_cases :
  t ->
  ns ->
  ns ->
  current1:(int * Mso.var) option ->
  current2:(int * Mso.var) option ->
  Mso.formula list
(** The disjuncts of "the two configurations may occur in either order". *)

val conflict_access :
  t -> ns -> ns -> q1:int -> x1:Mso.var -> q2:int -> x2:Mso.var -> Mso.formula
(** The current records of the two configurations access a common
    location, at least one writing. *)

val dependence :
  t -> ns -> ns -> q1:int -> x1:Mso.var -> q2:int -> x2:Mso.var -> Mso.formula
(** [Dependence]: both namespaces describe valid configurations, and their
    current records conflict ({!configuration} twice and
    {!conflict_access}, conjoined). *)

val may_conflict : t -> int -> int -> bool
(** Cheap static prefilter: is the conflict formula non-trivial? *)
