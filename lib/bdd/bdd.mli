(** Reduced ordered binary decision diagrams (ROBDDs).

    Variables are non-negative integers ordered by their numeric value: the
    smaller the index, the closer to the root.  All diagrams are hash-consed
    into a single global table, so structural equality ([==]) coincides with
    semantic equality of boolean functions.

    This module backs the transition guards of the tree automata in
    {!Treeauto}: an alphabet symbol is a bit vector assigning one boolean per
    track, and a guard is a BDD over track indices. *)

type t
(** A boolean function over integer-indexed variables. *)

type var = int
(** Variable (track) index.  Must be [>= 0]. *)

val bot : t
(** The constant [false]. *)

val top : t
(** The constant [true]. *)

val var : var -> t
(** [var i] is the function returning the value of variable [i]. *)

val nvar : var -> t
(** [nvar i] is [neg (var i)]. *)

val neg : t -> t

val conj : t -> t -> t

val disj : t -> t -> t

val xor : t -> t -> t

val imp : t -> t -> t

val iff : t -> t -> t

val conj_list : t list -> t

val equal : t -> t -> bool
(** Constant-time semantic equality (hash-consing). *)

val hash : t -> int

val is_bot : t -> bool

val is_top : t -> bool

val restrict : t -> var -> bool -> t
(** [restrict f i b] is the cofactor of [f] with variable [i] set to [b]. *)

val eval : (var -> bool) -> t -> bool
(** Evaluate under a valuation. *)

val root_var : t -> var
(** The variable at the root of a non-constant diagram: the smallest one
    the function depends on.  @raise Invalid_argument on a constant. *)

val check_integrity : unit -> (unit, string) result
(** Re-check the ROBDD representation invariants (hash-cons key
    consistency, reducedness, variable ordering) on every node in the
    unique table.  O(table size); meant for query-boundary
    self-validation, not per-operation use. *)
