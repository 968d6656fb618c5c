(** Linear expressions over string-named variables with rational
    coefficients: [c0 + c1*x1 + ... + cn*xn]. *)

type t

val zero : t

val of_int : int -> t

val var : string -> t
(** The expression [1 * x]. *)

val add : t -> t -> t

val sub : t -> t -> t

val neg : t -> t

val scale : Rat.t -> t -> t

val coeff : t -> string -> Rat.t
(** Coefficient of a variable ([zero] when absent). *)

val constant : t -> Rat.t

val vars : t -> string list
(** Variables with non-zero coefficient, sorted. *)

val subst : t -> string -> t -> t
(** [subst e x e'] replaces [x] by [e'] in [e]. *)

val rename : (string -> string) -> t -> t
(** Rename every variable.  The mapping need not be injective; coefficients
    of variables mapped to the same name are summed. *)

val eval : (string -> Rat.t) -> t -> Rat.t

val is_const : t -> bool

val equal : t -> t -> bool

val scale_to_int_coeffs : t -> t
(** Multiply by the positive lcm of coefficient denominators so every
    coefficient (and the constant) becomes an integer, then divide by the gcd
    of all variable coefficients' absolute values when that preserves
    integer-equivalence of [e >= 0] (the constant is floored accordingly).
    The result defines the same set of integer solutions of [e >= 0]. *)

val pp : Format.formatter -> t -> unit
