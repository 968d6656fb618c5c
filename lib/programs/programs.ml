(** The paper's case-study programs (Section 5) in Retreet concrete syntax.

    Block labels ([sK:]) follow the paper's numbering where the paper gives
    one (the running example); elsewhere they name the straight-line blocks
    so that equivalence checks can align blocks across program versions.

    Tree mutation (Figure 7) is expressed after the paper's local-field
    rewriting: the pointer swap is simulated by a boolean field
    [n.swapped] ("children are exchanged"), reads of [n.l] in downstream
    code become reads of [n.r] (the branch-eliminated form the paper
    derives), so the programs are the standard Retreet programs the paper
    actually fed to the solver.

    CSS minification (Figure 8) is expressed after left-child/right-sibling
    binarization, with the string conditions and transfer functions
    replaced by arithmetic ones, exactly as the paper describes.

    The sources are the files under [programs/], embedded at build time as
    [Program_files] (see this directory's [dune]). *)

include Program_files

let parse src = Parser.parse_program src

let load src : Blocks.t =
  let prog = parse src in
  Wf.check_exn prog

(* ------------------------------------------------------------------ *)
(* Table 1 block maps: source-version label -> fused-version label      *)

let size_counting_map =
  [ ("s0", "fnil"); ("s4", "fnil"); ("s3", "fret"); ("s7", "fret");
    ("s10", "s10") ]

let tree_mutation_map =
  [ ("wnil", "wnil"); ("inil", "wnil"); ("wset", "wset");
    ("ileaf", "ileaf"); ("istep", "istep"); ("mret", "mret") ]

let css_minification_map =
  [ ("cvnil", "cvnil"); ("mfnil", "cvnil"); ("rinil", "cvnil");
    ("cvset", "cvset"); ("cvskip", "cvskip"); ("mfset", "mfset");
    ("mfskip", "mfskip"); ("riset", "riset"); ("riskip", "riskip");
    ("mret", "mret") ]

let cycletree_map =
  [ ("rmnil", "rmnil"); ("pmnil", "pmnil"); ("imnil", "imnil");
    ("tmnil", "tmnil"); ("rmset", "rmset"); ("pmset", "pmset");
    ("imset", "imset"); ("tmset", "tmset"); ("rtnil", "rtnil");
    ("crnil", "rmnil"); ("crnil", "pmnil"); ("crnil", "imnil");
    ("crnil", "tmnil"); ("crlz", "crlz"); ("crl", "crl"); ("crrz", "crrz");
    ("crr", "crr"); ("cmx1", "cmx1"); ("cmx2", "cmx2"); ("cmx3", "cmx3");
    ("cmx4", "cmx4"); ("cmn1", "cmn1"); ("cmn2", "cmn2"); ("cmn3", "cmn3");
    ("cmn4", "cmn4"); ("rtret", "rtret"); ("mret", "mret") ]

(* ------------------------------------------------------------------ *)
(* Table 1 queries                                                      *)

type query =
  | Race of string
  | Equiv of string * string * (string * string) list

type row = {
  id : string;
  study : string;
  title : string;
  query : query;
  expect : int;
  paper_result : string;
  paper_time : string;
}

let table1 =
  [
    { id = "E1"; study = "size-counting"; title = "fuse Odd;Even (Fig. 6a)";
      query = Equiv (size_counting_seq, size_counting_fused, size_counting_map);
      expect = 0; paper_result = "valid"; paper_time = "0.14s" };
    { id = "E2"; study = "size-counting"; title = "invalid fusion (Fig. 6b)";
      query =
        Equiv
          (size_counting_seq, size_counting_fused_invalid, size_counting_map);
      expect = 1; paper_result = "counterexample"; paper_time = "0.14s" };
    { id = "E3"; study = "size-counting"; title = "Odd(n) || Even(n) races?";
      query = Race size_counting;
      expect = 0; paper_result = "race-free"; paper_time = "0.02s" };
    { id = "E4"; study = "tree-mutation";
      title = "fuse Swap;IncrmLeft (Fig. 7)";
      query = Equiv (tree_mutation_seq, tree_mutation_fused, tree_mutation_map);
      expect = 0; paper_result = "valid"; paper_time = "0.12s" };
    { id = "E5"; study = "css-minification"; title = "fuse 3 passes (Fig. 8)";
      query =
        Equiv
          (css_minification_seq, css_minification_fused, css_minification_map);
      expect = 0; paper_result = "valid"; paper_time = "6.88s" };
    { id = "E6"; study = "cycletree"; title = "fuse numbering;routing (Fig. 9)";
      query = Equiv (cycletree_seq, cycletree_fused, cycletree_map);
      expect = 0; paper_result = "valid"; paper_time = "490.55s" };
    { id = "E7"; study = "cycletree"; title = "numbering || routing races?";
      query = Race cycletree_par;
      expect = 1; paper_result = "counterexample"; paper_time = "0.95s" };
  ]
