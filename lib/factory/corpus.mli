(** Corpus materialization and the ground-truth campaign driver.

    [write_corpus] lowers sampled {!Factory.scenario}s to an on-disk
    corpus of [.retreet] workloads (plus fused siblings, [equiv] block
    maps and the generated CSS provenance) under a [MANIFEST.tsv], byte-
    deterministic in the seed.

    [run_campaign] pushes scenarios through the production query planes —
    the race query per program via {!Pool.run_batch} (the [retreet batch]
    engine), a byte-identity cross-check through {!Serve.Core} (the
    [retreet serve] engine), and the equivalence query for fusion pairs —
    and compares every verdict against the constructed ground truth.  Any
    disagreement (wrong verdict, failed self-validation, or a parse error
    on an emitted source) is a caught bug; [shrink] then greedily
    minimizes the offending scenario with {!Factory.shrink_shape} so the
    reproducer written to disk is small. *)

type config = {
  jobs : int;  (** worker domains for the batch plane *)
  budget : Engine.budget;  (** per-query budget (prefer deterministic caps) *)
  vlevel : Validate.level;
  inject : (string * int * int) option;
      (** testing only: the [--inject] sabotage as [(site, seed, period)],
          re-armed on whichever domain runs each query, exactly as
          [retreet batch] does, and passed to the serve plane as a solve
          option *)
  serve_sample : int;
      (** how many scenarios to cross-check through {!Serve.Core} for
          byte identity with the batch plane (0 skips the plane) *)
}

val default_budget : Engine.budget
(** Deterministic caps on every axis (steps, BDD nodes, automaton
    states; no wall clock): generous for the queries the factory emits,
    tight enough that a deliberately sabotaged solver degrades to
    Unknown instead of exploring a corrupted state space forever. *)

val default_config : config
(** Serial, {!default_budget}, [Witness] validation, no injection,
    serve cross-check on 4 scenarios. *)

type disagreement = {
  d_index : int;  (** scenario index in the campaign *)
  d_scenario : Factory.scenario;
  d_detail : string;  (** which plane disagreed and how *)
}

type summary = {
  total : int;  (** scenarios checked *)
  queries : int;  (** solver queries run (race, sibling race, equiv) *)
  agree : int;
  unknown : int;  (** budget-exhausted queries: not counted as agreement *)
  disagreements : disagreement list;
}

val check_scenario : config -> Factory.scenario -> string list
(** All ground-truth disagreements of one scenario (empty = clean);
    unknowns are not disagreements.  Used by the shrinker and the tests. *)

val run_campaign : config -> Factory.scenario list -> summary

val shrink : config -> disagreement -> Factory.scenario
(** Greedy structural minimization: repeatedly rebuild from
    {!Factory.shrink_shape} candidates, descending into any candidate
    that still disagrees, until a local minimum. *)

val write_repro : dir:string -> Factory.scenario -> string
(** Write the (minimized) scenario as [repro_<kind>_<family>.retreet]
    (plus [.fused.retreet]/[.map] for fusion scenarios) and return the
    primary path.  The file is a parseable, self-contained reproducer. *)

val prepare_out_dir : string -> (unit, string) result
(** Create the directory if needed.  Refuses (with an explanation) a
    non-empty directory that does not carry a [MANIFEST.tsv] — [gen]
    only ever overwrites directories it produced. *)

val write_corpus : dir:string -> Factory.scenario list -> string list
(** Write every scenario plus [MANIFEST.tsv]; returns the file names
    written (relative to [dir]), in deterministic order. *)

val pp_summary : Format.formatter -> summary -> unit
(** Deterministic (no wall-clock) one-paragraph rendering. *)
