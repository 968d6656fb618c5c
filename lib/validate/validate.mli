(** Self-validation of solver verdicts.

    This layer sits above {!Analysis}: it runs a query, then spends
    whatever budget is left cross-checking the verdict through independent
    means — replaying counterexamples concretely, sweeping the structural
    invariants of the BDD stores and of every constructed automaton, and
    differentially testing positive verdicts against bounded-exhaustive
    schedule exploration and the coarse baseline analysis.

    Validation is strictly observational: it {e never} changes a verdict
    and never raises.  Its outcome is a {!report} listing what was
    checked, what was skipped (e.g. because the budget ran out first) and
    what failed.  A failed check means the pipeline caught itself
    producing an answer inconsistent with an independent oracle — the CLI
    maps this to its own exit code so harnesses can distinguish "proof"
    from "proof that failed self-validation". *)

(** {1 Levels} *)

type level =
  | Off  (** no validation *)
  | Witness  (** replay printed counterexamples concretely *)
  | Invariants
      (** [Witness] + structural invariants of every constructed
          automaton and of the BDD/MTBDD stores *)
  | Full
      (** [Invariants] + differential checking of positive verdicts
          against schedule exploration and the coarse baseline *)

val level_enum : (string * level) list
(** Command-line names, for [Cmdliner.Arg.enum]. *)

(** {1 Reports} *)

type status =
  | Passed
  | Failed of string  (** the verdict is inconsistent with an oracle *)
  | Unchecked of string  (** the check did not run, and why *)

type check = { name : string; status : status }

type report = {
  vlevel : level;  (** the level the validation ran at *)
  checks : check list;  (** in execution order *)
  query_time : float;  (** seconds spent producing the verdict *)
  validation_time : float;  (** seconds spent checking it *)
}

val ok : report -> bool
(** No check failed (skipped checks do not fail a report). *)

val pp_report : Format.formatter -> report -> unit

(** {1 Rendering}

    The verdict line every front end prints, and the exit-code contract
    around it: {!Analysis.render_race} / {!Analysis.render_equiv} give a
    verdict's own line and code, these add what validation and
    scheduling can do to it. *)

val render : ('v -> string * int) -> 'v * report -> string * int
(** [render verdict_line (v, report)] is [verdict_line v] when the report
    is {!ok}; otherwise the same text followed by
    ["  [verdict FAILED self-validation]"], with exit code 4. *)

val render_task :
  ('v -> string * int) -> ('v * report, Engine.reason) result -> string * int
(** {!render} for a [Pool.run_batch] task.  [Error reason] is a task the
    pool cancelled before it ran (batch deadline passed): ["UNKNOWN: "]
    and the reason, exit code 3. *)

val worst_code : int list -> int
(** The exit code of a batch: its most severe per-query code, ordered
    2 (usage) > 4 (failed self-validation) > 1 (counterexample) >
    3 (unknown) > 0 (proof).  [0] for the empty list. *)

(** {1 Structural invariants}

    Exposed for the test suite; {!check_data_race} and
    {!check_equivalence} run them automatically at level [Invariants]
    and above. *)

val check_automaton : string -> Treeauto.t -> (unit, string) result
(** [check_automaton stage a] checks that every transition of [a] targets
    an existing state and — after a minimizing stage ("minimize",
    "project") — that no two distinct states are trivially mergeable
    (same acceptance, identical hash-consed transition rows).  Deep scans
    are skipped above an internal size threshold so the check stays
    cheap enough to run on every construction. *)

val check_stores : unit -> (unit, string) result
(** {!Bdd.check_integrity} followed by {!Mtbdd.check_integrity}. *)

(** {1 Validated queries} *)

val check_data_race :
  ?level:level ->
  ?budget:Engine.budget ->
  Blocks.t ->
  Analysis.race_result * report
(** Run {!Analysis.check_data_race} and validate the verdict: a [Race] is
    replayed concretely ([Witness]+) and cross-checked against the coarse
    baseline ([Full]); [Race_free] is differentially tested on small
    concrete trees — the dynamic dependence oracle must observe no race
    and all explored schedules must agree ([Full]). *)

val check_equivalence :
  ?level:level ->
  ?budget:Engine.budget ->
  Blocks.t ->
  Blocks.t ->
  map:Analysis.block_map ->
  Analysis.equiv_result * report
(** Run {!Analysis.check_equivalence} and validate the verdict:
    [Not_equivalent] counterexamples are replayed concretely ([Witness]+)
    and an [Equivalent] proof is differentially tested by running both
    programs on small concrete trees with varied field contents
    ([Full]). *)
