(** Left-child/right-sibling binarization of CSS documents.

    The paper converts the n-ary CSS syntax trees "to left-child
    right-sibling binary trees" before verification; this module performs
    that conversion on real documents, producing a {!Heap.tree} whose
    nodes carry the integer fields the verified Retreet traversals read
    and write ([kind], [prop], [value]), so the abstract passes can be
    interpreted on binarized real stylesheets. *)

val lcrs_of_stylesheet : Css_ast.stylesheet -> Heap.tree
(** The binary left child is the first child; the binary right child is
    the next sibling. *)

val abstract_size : Heap.tree -> int
(** Sum of the [value] fields — the quantity the abstract minification
    passes reduce. *)
