(* CSS minification end to end.

   The paper's third case study verifies that three CSS minification
   traversals (ConvertValues, MinifyFont, ReduceInit) can be fused into a
   single pass.  This example shows the whole story on a real stylesheet:

   1. parse CSS and minify it with the three-pass pipeline;
   2. minify it with the fused single pass and check the outputs agree;
   3. binarize the document (left-child/right-sibling) and run the
      *verified* Retreet traversals — sequential and fused — on it with
      the reference interpreter, checking they agree on the abstract tree;
   4. invoke the verification itself: the Retreet framework proves the
      fusion correct, while the coarse traversal-level baseline rejects
      it because all three passes touch the `value` field. *)

let stylesheet_src =
  {|
/* a small page style */
body {
  margin: initial;
  font-weight: normal;
  transition: 100ms;
  border-width: 0px;
}
h1.title {
  font-weight: bold;
  min-width: initial;
  animation-duration: 1500ms;
  padding: initial;
}
nav a:hover {
  opacity: initial;
  outline-width: 0px;
  transition-delay: 200ms;
  font-weight: normal;
}
|}

let () =
  (* 1. native three-pass minification *)
  let sheet = Css_parser.parse stylesheet_src in
  let before = Css_ast.size_bytes sheet in
  let mini_seq = Css_minify.minify sheet in
  Fmt.pr "three-pass minification: %d -> %d bytes@." before
    (Css_ast.size_bytes mini_seq);
  Fmt.pr "  %s@." (Css_ast.to_string mini_seq);

  (* 2. fused single-pass minification agrees *)
  let mini_fused = Css_minify.minify_fused sheet in
  Fmt.pr "fused single pass agrees: %b@."
    (Css_ast.equal_stylesheet mini_seq mini_fused);

  (* 3. run the verified Retreet traversals on the binarized document *)
  let seq_prog = Programs.load Programs.css_minification_seq in
  let fused_prog = Programs.load Programs.css_minification_fused in
  let t1 = Css_lcrs.lcrs_of_stylesheet sheet in
  let t2 = Heap.copy t1 in
  Fmt.pr "binarized document: %d positions, abstract size %d@."
    (Heap.size t1) (Css_lcrs.abstract_size t1);
  ignore (Interp.run seq_prog t1 []);
  ignore (Interp.run fused_prog t2 []);
  Fmt.pr "abstract size after passes: sequential %d, fused %d, heaps equal: \
          %b@."
    (Css_lcrs.abstract_size t1) (Css_lcrs.abstract_size t2)
    (Heap.equal t1 t2);

  (* 4. verify the fusion of the traversal skeletons *)
  let map = Programs.css_minification_map in
  (match Analysis.check_equivalence seq_prog fused_prog ~map with
  | Analysis.Equivalent _ ->
    Fmt.pr "verified: the three minification traversals can be fused@."
  | Analysis.Not_equivalent _ -> Fmt.pr "fusion rejected?!@."
  | Analysis.Bisimulation_failed why -> Fmt.pr "bisimulation failed: %s@." why
  | Analysis.Equiv_unknown u -> Fmt.pr "unknown: %a@." Analysis.pp_progress u);
  Fmt.pr "coarse baseline says: %a@." Baseline.pp_verdict
    (Baseline.can_fuse seq_prog.prog "ConvertValues" "MinifyFont")
