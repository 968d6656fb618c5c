(** Satisfiability of conjunctions of linear integer constraints.

    An {e atom} is a linear expression [e] read as the constraint [e >= 0]
    over integer-valued variables.  Atoms are closed under negation because
    over the integers [not (e >= 0)] is [-e - 1 >= 0].

    The decision procedure is the Omega-test core: Fourier–Motzkin
    elimination with integer tightening, using the real shadow for
    refutation and the dark shadow for confirmation.  When neither shadow
    decides (only possible when both bound coefficients exceed 1, which the
    bundled case studies never produce) or the elimination runs out of
    fuel, the procedure answers "satisfiable" and logs a warning.  That
    errs on the sound side for every caller: an unsat answer is always a
    proof, so the encoder never drops a feasible path-condition assignment,
    and {!implies}/{!equiv} only answer [true] when it is proved. *)

type atom = Lin.t
(** The constraint [e >= 0]. *)

type conj = atom list
(** Conjunction of atoms. *)

val ge0 : Lin.t -> atom
(** [e >= 0]. *)

val gt0 : Lin.t -> atom
(** [e > 0], i.e. [e - 1 >= 0] over the integers. *)

val le0 : Lin.t -> atom

val neg_atom : atom -> atom
(** Integer-exact negation: [not (e >= 0)] = [-e - 1 >= 0]. *)

val sat : conj -> bool
(** Integer satisfiability of the conjunction; [false] is a proof,
    [true] may also mean undecided. *)

val implies : conj -> atom -> bool
(** [implies hyp a]: does [hyp] entail [a] over the integers? *)

val equiv : conj -> conj -> bool
(** Mutual entailment. *)
