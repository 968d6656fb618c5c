(** Multi-terminal BDDs with integer terminals.

    An MTBDD represents a total function from bit-vector valuations to
    integers.  In {!Treeauto} the integers are automaton state identifiers
    (or identifiers of state {e sets} during subset construction).  Variables
    share the global ordering of {!Bdd} and diagrams are hash-consed, so
    [==] is semantic equality. *)

type t

type var = int

module IdTbl : Hashtbl.S with type key = int
(** Int keys under the identity hash, which spreads keys allocated
    consecutively (node ids, automaton state codes) evenly over the
    buckets; keys that are already hashes need no further mixing. *)

module Memo2 : Hashtbl.S with type key = int * int
(** Int-pair keys, e.g. the node ids of a binary operation's operands. *)

val const : int -> t
(** The constant function. *)

val ite : Bdd.t -> t -> t -> t
(** [ite g a b] returns [a] where the guard holds and [b] elsewhere. *)

val equal : t -> t -> bool

val hash : t -> int

val eval : (var -> bool) -> t -> int
(** Value of the function at a valuation. *)

val combiner : (int -> int -> int) -> t -> t -> t
(** [combiner f] returns a combining function backed by a single memo table
    shared across all its invocations.  Use one combiner per logical
    operation (e.g. one automaton product) so repeated diagram pairs are
    combined once. *)

val mapper : (int -> int) -> t -> t
(** [mapper f] returns the pointwise image under [f], backed by a single
    memo table (per diagram node) shared across all its invocations: a
    node reached again, from the same diagram or a later one, is not
    re-mapped.  [f] must answer the same for the same terminal while the
    mapper is in use.  Fresh nodes are allocated in the order of first
    visit, as by an unshared traversal of the same diagrams. *)

val renamer : (var -> var) -> t -> t
(** [renamer f] returns the diagram with each variable [v] replaced by
    [f v], memoized like {!mapper}.  [f] must be strictly increasing on
    the variables it meets, so the result is again ordered; a diagram of
    another solver context is rebuilt in the current one.
    @raise Invalid_argument if [f] breaks the variable order. *)

val restricter : var -> bool -> t -> t
(** [restricter v b] returns the cofactor at [v = b], memoized like
    {!mapper}. *)

val terminal_scanner : unit -> t -> int list
(** [terminal_scanner ()] returns a scan that gives, for each diagram it
    is applied to, the terminal values not reported by an earlier call of
    the same scan, ascending.  It visits each node once over all calls. *)

val terminals : t -> int list
(** All terminal values occurring in the diagram, ascending, no duplicates. *)

val find_terminal : t -> int -> (var * bool) list option
(** A partial valuation leading to the given terminal, if it occurs.
    Unlisted variables are don't-care. *)

val size : t -> int

val check_integrity : unit -> (unit, string) result
(** Re-check the MTBDD representation invariants (hash-cons key
    consistency, reducedness, variable ordering) on every node in the
    tables; see {!Bdd.check_integrity}. *)
