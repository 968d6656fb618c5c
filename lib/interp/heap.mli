(** Tree-shaped heaps: the runtime data structure Retreet programs
    traverse.

    Nodes carry mutable integer fields (absent fields read as [0]); the
    pointer structure is immutable from the language's point of view —
    the builders below may set it up, but no Retreet program can change
    it (Section 2.1's no-tree-mutation restriction). *)

type tree =
  | Nil
  | Node of node

and node = {
  mutable left : tree;
  mutable right : tree;
  fields : (string, int) Hashtbl.t;
}

val node : ?fields:(string * int) list -> tree -> tree -> tree

val leaf : ?fields:(string * int) list -> unit -> tree
(** A node with two [nil] children. *)

val is_nil : tree -> bool

val descend : tree -> Ast.dir list -> tree option
(** Follow a pointer path; [None] if the walk crosses a nil. *)

val get_field : tree -> string -> int
(** @raise Invalid_argument on a nil node.  Absent fields read as [0]. *)

val set_field : tree -> string -> int -> unit
(** @raise Invalid_argument on a nil node. *)

val size : tree -> int
(** Number of non-nil nodes. *)

val height : tree -> int

val copy : tree -> tree
(** Deep copy (fields included). *)

val equal : tree -> tree -> bool
(** Structural equality of shape and field contents (fields holding [0]
    and absent fields are identified). *)

val pp : Format.formatter -> tree -> unit

val positions : tree -> (tree * Ast.dir list) list
(** All non-nil positions with their paths from the root, preorder. *)

val complete_tree :
  height:int -> init:(Ast.dir list -> (string * int) list) -> tree
(** A complete binary tree; [init] receives each node's path and returns
    its initial fields. *)

val probe_trees : seed:int -> heights:int list -> per_height:int -> tree list
(** [per_height] complete trees of each height in [heights], in order.
    Every node holds the case studies' fields [v value kind prop num
    swapped], each drawn from [0, 12) by a generator seeded with [seed]:
    the same arguments give the same trees. *)

val random :
  ?init:(Ast.dir list -> (string * int) list) ->
  size:int ->
  Random.State.t ->
  tree
(** A random tree with at most [size] (and at least one) nodes. *)
