(** Ground-truth scenario factory.

    The paper is evaluated on 13 hand-written traversal pairs; this module
    manufactures unbounded families of them {e with the verdict known by
    construction}, so any solver answer that disagrees with the
    constructed truth is a caught bug somewhere in
    parser → encode → mso → treeauto → bdd → arith → validate → pool →
    serve.

    Two scenario families:

    - {b Syn}: random synthetic traversals over the Retreet AST — bounded
      mutual recursion, optional [Int] parameters, readers (accumulating
      returns) and writers (field updates), guarded and unguarded
      accesses, either recursion order.
    - {b Css}: cssnano-style passes over the [kind]/[prop]/[value]
      fields of a stylesheet tree are emitted — the bundled case study
      (E5) scaled across generated documents.  A random stylesheet is
      drawn with each scenario and rendered to CSS text by this module
      ([sc_css], written beside the programs of a corpus); it is not
      parsed, and the passes do not depend on it.

    Four kinds, two per query plane:

    - [Par_clean]: two traversals over {e disjoint} field sets composed
      in parallel — race-free by construction.
    - [Par_racy]: the same, with one unconditional write retargeted onto
      the other traversal's field — every non-empty tree races at the
      root, so counterexample replay always confirms.
    - [Fuse_valid]: post-order unit passes fused by {!Transform.fuse};
      passes touch disjoint fields (Syn) or only same-node fields in
      preserved order (Css), so the fusion is equivalent by construction.
    - [Fuse_broken]: the fused sibling with a dependence-breaking
      reorder — an accumulator tail moved above the recursive calls
      (Syn), or an unconditional write swapped after the guarded write it
      feeds (Css) — non-equivalent, and distinguishable on the concrete
      probe trees {!Validate} replays counterexamples on.

    All emitted sources are canonical for {!Pretty} (they reparse
    exactly) and well-formed ({!Wf.check} passes); both invariants are
    enforced at construction time and property-tested. *)

type family = Syn | Css
type kind = Par_clean | Par_racy | Fuse_valid | Fuse_broken

val kind_name : kind -> string
val family_name : family -> string

(** {1 Shapes}

    The generator's search space: a small structural description from
    which the concrete programs are built deterministically.  Shrinking
    operates on shapes, never on source text, so every shrink step stays
    well-formed by construction. *)

type syn_trav = {
  t_mutual : bool;  (** two mutually recursive functions instead of one *)
  t_reader : bool;  (** accumulate returns instead of writing fields *)
  t_pre : bool;  (** writers: extra unconditional touch before the calls *)
  t_guard : int option;  (** extra guarded secondary write after the calls *)
  t_param : bool;  (** thread an [Int] parameter through the calls *)
  t_delta : int;  (** increment constant, >= 1 *)
  t_rl : bool;  (** recurse into the right child first *)
}

type syn_pass = {
  p_acc : bool;  (** accumulator: read the child's own field (E1 style) *)
  p_right : bool;  (** accumulate from the right child (else the left) *)
  p_guard : int option;  (** non-acc: guard the write on a secondary field *)
  p_delta : int;  (** increment constant, >= 1 *)
}

type css_guard = GKind | GProp | GValue of int

type css_pass = { c_guard : css_guard option; c_delta : int }

type sheet = (int * (int * int) list) list
(** Generated stylesheet: per rule a selector index and [(property index,
    value index)] declarations over the fixed vocabulary. *)

type shape =
  | Syn_par of { a : syn_trav; b : syn_trav }
  | Syn_fuse of { passes : syn_pass list }
  | Css_par of { sheet : sheet; writer_guard : css_guard option }
  | Css_fuse of { sheet : sheet; passes : css_pass list }

(** {1 Scenarios} *)

type scenario = {
  sc_kind : kind;
  sc_family : family;
  sc_shape : shape;
  sc_source : string;  (** the primary [.retreet] program (parallel for
                           [Par_*], the sequential original for [Fuse_*]) *)
  sc_sibling : string option;  (** [Fuse_*]: the fused program *)
  sc_map : (string * string) list;  (** [Fuse_*]: block map for [equiv] *)
  sc_css : string option;  (** [Css]: the generated stylesheet text *)
  sc_expect_race : [ `Free | `Racy ];
      (** expected data-race verdict of [sc_source] *)
  sc_expect_equiv : [ `Equivalent | `Conflict ] option;
      (** [Fuse_*]: expected verdict of [equiv sc_source sc_sibling] *)
}

val build : kind -> shape -> scenario
(** Deterministic shape → scenario elaboration.  Normalizes the shape
    where the kind demands it (a racy pair needs a writer to retarget; a
    broken fusion needs an accumulator pass to reorder), then asserts the
    two construction invariants: the emitted sources reparse exactly
    under {!Pretty.print_prog} and pass {!Wf.check}.
    @raise Invalid_argument if an invariant is violated (a factory bug —
    the qcheck suite exists to keep this unreachable). *)

val gen_scenario : Random.State.t -> scenario

val sample : seed:int -> count:int -> scenario list
(** [count] scenarios from a fresh deterministic PRNG: same seed, same
    byte-identical scenarios, on every machine. *)

val shrink_shape : shape -> shape list
(** Structural candidates strictly smaller than the input (fewer passes
    or rules, dropped guards and features, unit deltas).  Plugs into
    [QCheck.Shrink] in the test suite and drives the greedy minimizer of
    [retreet gen --check]. *)

val scenario_size : scenario -> int
(** Rough structural size (used to report shrink progress). *)
