(** Exact rational arithmetic over native integers.

    Values are kept normalized: the denominator is positive and coprime with
    the numerator.  Native [int] (63-bit) precision is ample for the small
    condition systems Retreet produces; operations do not detect overflow. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] normalizes the fraction.  @raise Division_by_zero if
    [den = 0]. *)

val of_int : int -> t

val zero : t

val one : t

val minus_one : t

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val sign : t -> int
(** [-1], [0] or [1]. *)

val floor : t -> int

val to_float : t -> float

val pp : Format.formatter -> t -> unit
