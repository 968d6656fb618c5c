(** Simulation of tree mutation by local fields (the preprocessing of the
    paper's tree-mutation case study).

    Retreet forbids mutating the tree topology; the paper simulates a
    child-swapping traversal with a boolean marker field and rewrites
    later reads of [n.l] into reads of [n.r] after branch elimination.
    {!simulate_swap} mechanizes that rewriting.

    No part of the pipeline needs it: the bundled case study is the
    hand-rewritten program, and test_transform uses this module as the
    oracle that checks it. *)

val simulate_swap :
  ?swap_name:string ->
  ?field:string ->
  Ast.prog ->
  downstream:string list ->
  (Ast.prog, string) result
(** Rewrite a program whose [Main] runs the [downstream] traversals
    (written against the pre-swap orientation) into the local-field
    simulation: a generated swap traversal (default name ["Swap"], marker
    field ["swapped"]), mirrored downstream traversals, and [Main]
    running the swap first. *)
