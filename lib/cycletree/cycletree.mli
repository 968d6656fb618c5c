(** Cycletrees (Veanes & Barklund): binary trees enriched with a cyclic
    order of the nodes, used as an interconnection topology — broadcast
    follows the tree edges, point-to-point traffic can follow the cycle.

    The module implements the machinery of the paper's last case study:
    the cyclic numbering of Figure 9 (four mutually recursive modes, here
    with the counter threaded so the numbering is a bijection), the
    per-node routing data, the routing algorithm, and validators for the
    cyclic order and the extra-edge counts the cycletree papers bound.

    Numbering and routing data live in the integer fields [num], [lmin],
    [lmax], [rmin], [rmax], [min], [max] of {!Heap.tree} nodes — the same
    fields the verified Retreet traversals manipulate, so the substrate
    can be cross-checked against the interpreter. *)

val build : Heap.tree -> int
(** Assign [num] in the cyclic order of Figure 9, then run the post-order
    routing-data pass ([ComputeRouting]); returns the node count. *)

(** {1 Routing} *)

val route : Heap.tree -> from:Ast.dir list -> dest:int -> int * Ast.dir list
(** Route a message hop by hop; returns the hop count and the destination
    path.  @raise Failure if routing does not converge within twice the
    tree height (corrupt routing data). *)

(** {1 Validation} *)

val numbering_is_bijection : Heap.tree -> bool
(** Is the numbering exactly [0 .. size-1]? *)

val cycle_edges : Heap.tree -> (Ast.dir list * Ast.dir list) list
(** Cyclically consecutive node pairs that are not tree-adjacent and
    therefore need an extra link. *)

val edge_count : Heap.tree -> int
(** Tree edges plus cycle edges. *)
