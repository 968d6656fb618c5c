(** The precision baseline: a coarse dependence analysis in the style of
    the frameworks the paper compares against (TreeFuser, attribute-
    grammar fusers) — per {e traversal}, per {e field}, with no notion of
    which node or which iteration performs an access.

    Its role in the evaluation is the qualitative comparison of Section 6:
    such analyses cannot represent mutually recursive traversals at all,
    and must reject any transformation in which two traversals touch a
    common field, even when the instance-wise analysis proves it safe. *)

type verdict =
  | Allowed
  | Rejected of string  (** the conflicting field *)
  | Unsupported of string  (** why the traversal cannot be represented *)

val pp_verdict : Format.formatter -> verdict -> unit

exception Unknown_traversal of string
(** Raised, with the name, by every function below when a traversal name
    is not a function of the program. *)

val family : Ast.prog -> string -> string list
(** The traversal family rooted at a function: itself plus every function
    it can transitively call, sorted. *)

val field_sets : Ast.prog -> string -> string list * string list
(** Field (reads, writes) of a whole traversal family, node-insensitive. *)

val can_fuse : Ast.prog -> string -> string -> verdict
(** May the two traversals be fused, according to the coarse analysis?
    When both names are unknown, the first is the one reported. *)

val can_parallelize : Ast.prog -> string -> string -> verdict
(** May the two traversals run in parallel?  Same criterion. *)
