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
    [~field_sensitive:false] to {!make} for the paper's granularity.

    Encode builds the predicates, every query's environment
    ({!query_env}) and the whole [DataRace⟦P⟧] formula ({!data_race}, for
    export).  {!Analysis} assembles the queries it decides from the
    predicates, one formula per block pair and divergence case. *)

(** A label namespace: which program copy ([tag]) and which of the two
    configurations of a query ([cfg]) the labels belong to.  The current
    record of configuration [k] runs on node [xk] (["x1"] or ["x2"]) in
    every namespace; the builders below place it there, so they take
    block ids only. *)
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

val query_env : (t * ns list) list -> Mso.env
(** The environment of a query over the given encoders' namespaces: the
    current nodes [x1] and [x2], then each encoder's label families,
    {e interleaved} so the agreement guards of the schedule predicates
    stay linear-size BDDs. *)

(** {1 Formulas} *)

val configuration : t -> ns -> q:int -> Mso.formula
(** [Configuration(L, C, q, x)]: the namespace's labels describe a valid
    (abstracted) configuration whose current record runs non-call block
    [q] on the namespace's current node [x]. *)

val divergence_triples : t -> Blocks.order -> (int * int * int) list
(** All [(s, t1, t2)] with [s / t1], [s / t2] and the given relation. *)

val ordered_cases : t -> ns -> ns -> q1:int -> q2:int -> Mso.formula list
(** The disjuncts of "the configuration of the first namespace, at block
    [q1], is scheduled strictly before that of the second, at block
    [q2]", one per divergence group.  Callers decide
    satisfiability per disjunct — [sat (X ∧ ∨gs) = ∃g. sat (X ∧ g)] — so
    the union automaton (exponential for mutually recursive clusters) is
    never built. *)

val parallel_cases : t -> ns -> ns -> q1:int -> q2:int -> Mso.formula list
(** The disjuncts of "the two configurations may occur in either order". *)

val conflict_access : t -> ns -> ns -> q1:int -> q2:int -> Mso.formula
(** The current records of the two configurations access a common
    location, at least one writing. *)

val dependence : t -> ns -> ns -> q1:int -> q2:int -> Mso.formula
(** [Dependence]: both namespaces describe valid configurations, and their
    current records conflict ({!configuration} twice and
    {!conflict_access}, conjoined). *)

val may_conflict : t -> int -> int -> bool
(** Cheap static prefilter: is the conflict formula of the two non-call
    blocks other than [False]?  Decided from the blocks' accesses, without
    building the formula. *)

val conflicting_pairs : t -> unordered:bool -> (int * int) list
(** The pairs of non-call blocks that {!may_conflict}, in block order;
    with [~unordered:true], each pair once, as [(q1, q2)] with
    [q1 <= q2]. *)

val data_race : t -> Mso.env * Mso.formula
(** [DataRace⟦P⟧], whole, with its environment: the disjunction, over
    the unordered {!conflicting_pairs}, of {!dependence} conjoined with
    the disjunction of {!parallel_cases}, over the namespaces
    [{tag = ""; cfg = 1}] and [{tag = ""; cfg = 2}].  It is [False] for a
    program with no parallel divergence.  This is what [retreet mona]
    exports; the race query solves it one pair and one parallel case at a
    time instead. *)
