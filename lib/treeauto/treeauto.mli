(** Deterministic bottom-up automata over labelled finite binary trees.

    Models are finite binary trees in which every position is either an
    internal node with exactly two children or a leaf; every position (leaf
    or internal) carries a label, a finite set of {e tracks} (bit indices)
    that are set at that position.  In the Retreet encoding, a track is one
    monadic second-order variable and a tree position is one heap node (leaf
    positions are the [nil] nodes).

    Automata are always deterministic and complete, with transition
    functions represented as {!Mtbdd.t} over track indices, mapping a label
    to the successor state.  Every state of a value of type {!t} is
    bottom-up reachable, i.e. realized by at least one tree, which makes
    emptiness a constant-time check of the acceptance vector. *)

type state = int

type label = int list
(** A label: the sorted list of tracks set at a position. *)

type tree =
  | Leaf of label
  | Node of label * tree * tree
      (** A labelled binary tree: the model over which automata run. *)

type t = private {
  nstates : int;
  leaf : Mtbdd.t;  (** label -> initial state of a leaf *)
  delta : Mtbdd.t array array;  (** [delta.(ql).(qr)] : label -> state *)
  accept : bool array;
}

(** {1 Construction} *)

val make :
  nstates:int ->
  leaf:(Bdd.t * state) list ->
  delta:(state -> state -> (Bdd.t * state) list) ->
  accept:(state -> bool) ->
  t
(** Build from guarded transition tables.  Each [(guard, q)] list is read
    in order; the first matching guard wins and the final entry must have
    guard {!Bdd.top} so the automaton is complete (checked).  Unreachable
    states are pruned. *)

val const : bool -> t
(** The automaton accepting every tree ([true]) or no tree ([false]). *)

(** {1 Boolean combinations} *)

val inter : t -> t -> t

val union : t -> t -> t

val complement : t -> t

val inter_list : t list -> t

val union_list : t list -> t

(** {1 Quantification} *)

val project : int -> t -> t
(** [project track a] accepts a tree [t] iff some enrichment of [t] on
    [track] is accepted by [a] — the automaton for [∃X.φ].  Implemented by
    track erasure followed by on-the-fly subset construction. *)

val rename : (int -> int) -> t -> t
(** [rename f a] reads track [f v] wherever [a] reads track [v]; states,
    numbering and acceptance are kept.  [f] must be strictly increasing
    on the tracks [a] reads.  Every construction of this module compares
    tracks only by their order, so the result is, node for node, the
    automaton the same construction builds over the renamed tracks.
    @raise Invalid_argument if [f] breaks the track order. *)

(** {1 State-space reduction} *)

val minimize : t -> t
(** Language-preserving Moore minimization (merges equivalent states). *)

(** {1 Decision procedures} *)

val witness : t -> tree option
(** A minimal-height accepted tree, or [None] for the empty language. *)

val run : t -> tree -> state

val accepts : t -> tree -> bool

(** {1 Inspection} *)

val size : t -> int
(** Number of states. *)

val pp_tree : Format.formatter -> tree -> unit

val equal_tree : tree -> tree -> bool

(** {1 Trees} *)

val label_mem : int -> label -> bool

val label_of_bits : (int * bool) list -> label
(** Keep the tracks assigned [true]; others cleared. *)

val tree_positions : tree -> (tree * int list) list
(** All subtrees with their access path from the root ([0] = left). *)

(** {1 Diagnostics} *)

val pp_op_stats : Format.formatter -> unit -> unit
(** Cumulative time spent in each automaton operation. *)

(** {1 Construction observer}

    Hook for the self-validation layer: the observer is invoked on every
    automaton produced by {!make}, boolean combinations, {!minimize},
    {!project} and {!rename}, with a stage tag ("explore", "minimize",
    "project" or "rename").  The default is a no-op costing one ref read
    per construction; observers must not raise. *)

val set_observer : (string -> t -> unit) -> unit

val clear_observer : unit -> unit
