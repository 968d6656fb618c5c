(* Quickstart: write a Retreet program, run it, and verify it.

   The program is the paper's running example (Figure 3): two mutually
   recursive traversals counting the nodes on odd and even layers of a
   binary tree, executed in parallel by Main.  We (1) parse and check it,
   (2) run it on a concrete tree, (3) prove it data-race-free with the MSO
   framework, and (4) verify the fusion of the two traversals. *)

let program =
  {|
Odd(n) {
  if (n == nil) {
    s0: return 0
  } else {
    s1: ls = Even(n.l);
    s2: rs = Even(n.r);
    s3: return ls + rs + 1
  }
}

Even(n) {
  if (n == nil) {
    s4: return 0
  } else {
    s5: ls = Odd(n.l);
    s6: rs = Odd(n.r);
    s7: return ls + rs
  }
}

Main(n) {
  { s8: o = Odd(n) || s9: e = Even(n) };
  s10: return o, e
}
|}

let () =
  (* 1. parse and check well-formedness *)
  let info = Wf.check_exn (Parser.parse_program program) in
  Fmt.pr "parsed: %d blocks, %d conditions@." (Blocks.nblocks info)
    (Array.length info.conds);

  (* 2. run it on a complete tree of height 4 *)
  let tree = Heap.complete_tree ~height:4 ~init:(fun _ -> []) in
  let { Interp.returns; events } = Interp.run info tree [] in
  Fmt.pr "on a complete tree of height 4: odd layers hold %d nodes, even \
          layers %d (in %d iterations)@."
    (List.nth returns 0) (List.nth returns 1) (List.length events);

  (* 3. the two parallel traversals never race *)
  (match Analysis.check_data_race info with
  | Analysis.Race_free -> Fmt.pr "verified: Odd(n) || Even(n) is data-race-free@."
  | Analysis.Race _ -> Fmt.pr "unexpected race!@."
  | Analysis.Race_unknown u -> Fmt.pr "unknown: %a@." Analysis.pp_progress u);

  (* 4. fusing the two traversals into one is a valid transformation *)
  let seq = Programs.load Programs.size_counting_seq in
  let fused = Programs.load Programs.size_counting_fused in
  (match
     Analysis.check_equivalence seq fused ~map:Programs.size_counting_map
   with
  | Analysis.Equivalent { relation } ->
    Fmt.pr "verified: the fusion of Odd and Even is correct (%d related \
            call pairs)@."
      (List.length relation)
  | Analysis.Not_equivalent _ -> Fmt.pr "fusion rejected?!@."
  | Analysis.Bisimulation_failed why -> Fmt.pr "bisimulation failed: %s@." why
  | Analysis.Equiv_unknown u -> Fmt.pr "unknown: %a@." Analysis.pp_progress u);

  (* 5. ... which no coarse traversal-level analysis can establish *)
  Fmt.pr "coarse baseline says: %a@." Baseline.pp_verdict
    (Baseline.can_fuse info.prog "Odd" "Even")
