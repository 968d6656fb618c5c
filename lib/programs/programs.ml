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
