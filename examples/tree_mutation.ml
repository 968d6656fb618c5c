(* Tree mutation via local fields, and automatic fusion.

   Retreet forbids mutating the tree topology, but the paper's second case
   study shows a pointer-swapping traversal can be simulated with local
   fields and then fused with a downstream traversal.  This example:

   1. runs the (rewritten) Swap; IncrmLeft pipeline on a tree and shows
      the values computed through the simulated swapped pointers;
   2. fuses the two traversals *automatically* with the Transform library
      and verifies the generated fusion with the framework;
   3. compares against the hand-written fused program from the paper. *)

let () =
  let seq = Programs.load Programs.tree_mutation_seq in

  (* 1. concrete run: v holds 1 + the depth of the rightmost (originally
     leftmost, after the simulated swap) spine below each node *)
  let tree = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  ignore (Interp.run seq tree []);
  let show path =
    match Heap.descend tree path with
    | Some node when not (Heap.is_nil node) ->
      Fmt.pr "  node %s: v = %d, swapped = %d@."
        (if path = [] then "root"
         else
           String.concat ""
             (List.map (function Ast.L -> "l" | Ast.R -> "r") path))
        (Heap.get_field node "v")
        (Heap.get_field node "swapped")
    | _ -> ()
  in
  Fmt.pr "after Swap; IncrmLeft on a complete tree of height 3:@.";
  List.iter show [ []; [ Ast.L ]; [ Ast.R ]; [ Ast.L; Ast.L ] ];

  (* 2. fuse automatically and verify the generated program *)
  (match Transform.fuse seq.prog [ "Swap"; "IncrmLeft" ] with
  | Error e -> Fmt.pr "automatic fusion failed: %s@." e
  | Ok (fused_prog, map) ->
    let fused = Wf.check_exn fused_prog in
    Fmt.pr "automatically fused Swap and IncrmLeft; block map: %a@."
      Fmt.(list ~sep:(any ", ") (fun ppf (a, b) -> Fmt.pf ppf "%s=%s" a b))
      map;
    (match Analysis.check_equivalence seq fused ~map with
    | Analysis.Equivalent _ ->
      Fmt.pr "verified: the generated fusion is correct@."
    | Analysis.Not_equivalent _ -> Fmt.pr "generated fusion rejected?!@."
    | Analysis.Bisimulation_failed why ->
      Fmt.pr "bisimulation failed: %s@." why
    | Analysis.Equiv_unknown u ->
      Fmt.pr "unknown: %a@." Analysis.pp_progress u);
    (* and it computes the same heaps *)
    let rng = Random.State.make [| 99 |] in
    let agree = ref true in
    for _ = 1 to 25 do
      let t = Heap.random ~size:12 rng in
      if not (Interp.equivalent_on seq fused t []) then agree := false
    done;
    Fmt.pr "25 random trees: generated fusion agrees concretely: %b@." !agree);

  (* 3. the paper's hand-written fused program (Figure 7b) *)
  let hand = Programs.load Programs.tree_mutation_fused in
  match Analysis.check_equivalence seq hand ~map:Programs.tree_mutation_map with
  | Analysis.Equivalent _ ->
    Fmt.pr "verified: the paper's hand-fused program (Fig. 7b) is correct@."
  | Analysis.Not_equivalent _ -> Fmt.pr "hand fusion rejected?!@."
  | Analysis.Bisimulation_failed why -> Fmt.pr "bisimulation failed: %s@." why
  | Analysis.Equiv_unknown u -> Fmt.pr "unknown: %a@." Analysis.pp_progress u
