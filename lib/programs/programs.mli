(** The paper's case-study programs (Section 5) in Retreet concrete
    syntax, with block labels aligning versions for equivalence checks,
    and the block maps that align them.

    Each program is a newline followed by the bytes of
    [programs/NAME.retreet], embedded at build time, so the files and the
    strings cannot drift apart. *)

val size_counting : string
(** Figure 3: mutually recursive [Odd]/[Even], run in parallel.  Block
    labels match the paper. *)

val size_counting_seq : string
(** The sequential composition [Odd; Even] — the fusion source. *)

val size_counting_fused : string
(** Figure 6a: the valid fusion.  [Fused(n)] returns [(Odd(n), Even(n))];
    the odd count of a node combines the {e even} counts of its children.
    Block [fnil] plays the roles of [s0] and [s4]; [fret] those of [s3]
    and [s7]. *)

val size_counting_fused_invalid : string
(** Figure 6b: the invalid fusion — the combination is computed {e before}
    the recursive calls, breaking the child-to-parent read-after-write
    dependence. *)

val tree_mutation_seq : string
(** Figure 7a after the local-field rewriting: [Swap; IncrmLeft].  [Swap]
    marks every node as swapped; [IncrmLeft] reads the {e simulated} left
    child, i.e. the physical right child, as derived by the paper's branch
    elimination. *)

val tree_mutation_fused : string
(** Figure 7b: the fused tree-mutation traversal. *)

val css_minification_seq : string
(** Figure 8's three passes after left-child/right-sibling conversion
    ([n.l] = first child, [n.r] = next sibling).  String conditions became
    arithmetic tests on Int fields ([kind], [prop], [value]); the string
    transfer functions became linear updates of [n.value]. *)

val css_minification_fused : string
(** The fused single-pass minifier: one traversal applying the three
    rewrites in pass order at every node. *)

val cycletree_seq : string
(** Figure 9: ordered cycletree numbering (four mutually recursive modes)
    followed by the routing-data computation.  [MAX]/[MIN] are expanded
    into conditionals, the child accesses are nil-guarded, and the
    per-node routing block is factored into the non-recursive helper
    [Route] — the granularity at which the fusion aligns blocks. *)

val cycletree_fused : string
(** The fused cycletree traversal: one pass performing the cyclic
    numbering and, once a node's children are fully processed and its
    number assigned, the routing computation for that node. *)

val cycletree_par : string
(** The parallelized variant the paper shows to be racy: the numbering
    and the routing computation run concurrently, violating the
    read-after-write dependence on [n.num]. *)

val racy_writers : string
(** A deliberately racy toy program (two parallel writers). *)

val all_named : (string * string) list
(** Every file under [programs/], keyed by its base name (the name used
    by [retreet]'s [builtin:NAME] source syntax), in file-name order. *)

val parse : string -> Ast.prog

val load : string -> Blocks.t
(** Parse and check; @raise Invalid_argument on an ill-formed program. *)

(** {1 Table 1}

    The block maps map labels of the source version to labels of the
    fused one, as [Analysis.check_equivalence] takes them. *)

val size_counting_map : (string * string) list
(** [size_counting_seq] to [size_counting_fused] (E1) or
    [size_counting_fused_invalid] (E2). *)

val tree_mutation_map : (string * string) list
(** [tree_mutation_seq] to [tree_mutation_fused] (E4). *)

val css_minification_map : (string * string) list
(** [css_minification_seq] to [css_minification_fused] (E5). *)

val cycletree_map : (string * string) list
(** [cycletree_seq] to [cycletree_fused] (E6). *)

(** A query of Table 1. *)
type query =
  | Race of string  (** is this program data-race-free? *)
  | Equiv of string * string * (string * string) list
      (** are these two programs equivalent under this block map? *)

type row = {
  id : string;  (** ["E1"] to ["E7"] *)
  study : string;
  title : string;  (** the query in words, with the paper's figure *)
  query : query;
  expect : int;
      (** the exit code of the paper's verdict: 0 proof, 1 refutation *)
  paper_result : string;
  paper_time : string;
}

val table1 : row list
(** The paper's seven queries, E1 to E7, in order. *)
