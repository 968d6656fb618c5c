(** Top-level verification queries of the Retreet framework.

    {!check_data_race} decides the paper's [DataRace⟦P⟧] query (Theorem 2)
    and {!check_equivalence} the [Conflict⟦P,P'⟧] query over a bisimulation
    witness (Definition 3, Theorem 3).  Both are sound abstractions: a
    [Race_free] / [Equivalent] verdict is a proof, while counterexamples
    may in principle be spurious and are therefore replayed concretely
    with {!replay_race} / {!replay_equivalence} (automating the manual
    validation the paper performs). *)

(** {1 Counterexamples} *)

type counterexample = {
  cx_tree : Treeauto.tree;  (** witness heap shape (leaves are nil nodes) *)
  cx_q1 : int;  (** current block of the first configuration *)
  cx_q2 : int;  (** current block of the second configuration *)
  cx_model : Mso.model;  (** full label assignment of the witness *)
}

val heap_of_witness : Treeauto.tree -> Heap.tree
(** The concrete heap corresponding to a witness tree: internal positions
    become nodes, leaves become [nil].  Total, including on the
    degenerate witnesses the solver can produce (a single leaf — the
    empty heap — and all-leaf fringes). *)

val witness_of_heap : Heap.tree -> Treeauto.tree
(** Right inverse of {!heap_of_witness} on shapes: nil positions become
    unlabelled leaves.  [heap_of_witness (witness_of_heap h)] has the
    shape of [h] for every heap [h]. *)

val pp_counterexample :
  Blocks.t -> Format.formatter -> counterexample -> unit

(** {1 Partial progress}

    Every query runs under an {!Engine.budget} (unlimited by default).
    When the budget runs out before a verdict, the query returns a typed
    Unknown carrying the exhausted resource and how many of the dependent
    block pairs were discharged before exhaustion.  Unknown is sound in
    both directions: it never replaces a definite verdict that the same
    query would have produced within budget, and a pair whose query was
    cut short is never counted as discharged — so [Race_free] /
    [Equivalent] still mean proof. *)

type progress = {
  reason : Engine.reason;  (** which resource ran out *)
  pairs_done : int;  (** dependent block pairs fully discharged *)
  pairs_total : int;  (** dependent block pairs the query must cover *)
}

val pp_progress : Format.formatter -> progress -> unit

(** {1 Data-race freedom (Theorem 2)} *)

type race_result =
  | Race_free  (** proof: no two parallel configurations conflict *)
  | Race of counterexample
  | Race_unknown of progress  (** budget exhausted before a verdict *)

val check_data_race :
  ?on_pair:(int -> int -> unit) ->
  ?field_sensitive:bool ->
  ?prune:bool ->
  ?budget:Engine.budget ->
  Blocks.t ->
  race_result
(** Decide [DataRace⟦P⟧].  [on_pair] is a progress callback invoked with
    each pair of non-call blocks before its query is solved;
    [field_sensitive]/[prune] are the {!Encode.make} ablation toggles.
    [budget] bounds the whole query: each dependent pair is attempted
    under an equal slice of the remaining wall clock, and pairs whose
    slice ran out are retried once with the leftover before the query
    returns [Race_unknown]. *)

val replay_race : Blocks.t -> counterexample -> bool
(** Build the witness heap, run the program, and ask the dynamic
    dependence oracle whether an unordered conflicting pair occurs:
    [true] confirms the counterexample is a true positive. *)

(** {1 Bisimulation (Definition 3)} *)

type block_map = (string * string) list
(** Correspondence from non-call block labels of [P] to labels of [P'].
    May be multivalued in both directions (a fused block can play several
    original roles, and several original blocks can collapse into one).
    Blocks with no accesses may be omitted. *)

type bisim_result =
  | Bisimilar of (int * int) list
      (** a witness relation over call blocks (union over all simulations) *)
  | Not_bisimilar of string  (** human-readable reason *)

val check_bisimulation :
  Blocks.t -> Blocks.t -> map:block_map -> bisim_result
(** Check Definition 3 in both directions for every mapped block. *)

(** {1 Equivalence (Theorem 3)} *)

type equiv_result =
  | Equivalent of { relation : (int * int) list }
      (** proof, with the bisimulation's call relation *)
  | Not_equivalent of counterexample
      (** a dependent pair of configurations is scheduled in opposite
          orders by the two programs *)
  | Bisimulation_failed of string
  | Equiv_unknown of progress  (** budget exhausted before a verdict *)

val check_equivalence :
  ?on_pair:(int -> int -> unit) ->
  ?field_sensitive:bool ->
  ?prune:bool ->
  ?budget:Engine.budget ->
  Blocks.t ->
  Blocks.t ->
  map:block_map ->
  equiv_result
(** Decide [Conflict⟦P,P'⟧] for two data-race-free programs related by
    [map].  [on_pair] is a progress callback per dependent block pair.
    Under a [budget], cheap dependence-prefilter pairs are discharged
    first, the remaining pairs get equal wall-clock slices, and failed
    pairs are retried once with the leftover budget before the query
    returns [Equiv_unknown]. *)

val replay_equivalence : Blocks.t -> Blocks.t -> counterexample -> bool
(** Run both programs concretely — on the witness heap, then on complete
    trees of growing height with varied field contents — and report
    whether any run distinguishes them ([true] = the counterexample is a
    real behavioural difference). *)

(** {1 Rendering}

    The one line of text and the exit code of each verdict, shared by
    every front end: [retreet race], [equiv], [batch] and [ask], the
    daemon, the corpus campaign and the bench tables.  Codes: 0 = proof,
    1 = counterexample or refutation, 3 = unknown.
    [Validate.render] adds the failed-self-validation suffix (code 4). *)

val render_race : race_result -> string * int
(** ["data-race-free"] (0), ["DATA RACE"] (1), or ["UNKNOWN: "] and the
    progress (3). *)

val render_equiv : equiv_result -> string * int
(** ["equivalent (bisimulation with N call pairs)"] (0),
    ["NOT equivalent"] (1), ["bisimulation failed: "] and the reason (1:
    a definite refutation of the block map, not a usage error), or
    ["UNKNOWN: "] and the progress (3). *)
