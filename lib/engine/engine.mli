(** Resource governance for the solving pipeline.

    A {!budget} bounds a computation along four axes — wall-clock time,
    hash-consed BDD/MTBDD node allocations, automaton states per
    construction, and abstract solver steps.  Budgets are enforced
    cooperatively: the hot loops of the pipeline call the cheap hooks
    {!tick}, {!note_bdd_node} and {!check_states}, which raise
    {!Out_of_budget} as soon as the installed budget is exhausted.  The
    exception is caught only at a query boundary, by {!with_budget}, which
    also converts the fatal [Stack_overflow] / [Out_of_memory] into an
    ordinary [Error] so a blown-up query degrades into a typed [Unknown]
    verdict instead of taking the process down.

    Budgets nest: a [with_budget] inside another runs under the pointwise
    minimum of its own limits and whatever remains of the enclosing
    budget, and charges its consumption back on exit.  An {!unlimited}
    budget at top level installs no state at all, so the default path pays
    nothing beyond a [ref] read per hook. *)

type resource =
  | Wall_clock
  | Bdd_nodes
  | Auto_states
  | Solver_steps
  | Heap_memory  (** converted from [Out_of_memory] *)
  | Call_stack  (** converted from [Stack_overflow] *)

type reason = {
  resource : resource;  (** which axis ran out *)
  used : int;  (** consumption at the point of exhaustion *)
  limit : int;  (** the configured limit (ms for {!Wall_clock}) *)
}
(** [used]/[limit] are [0] for {!Heap_memory} and {!Call_stack}, which
    come from caught runtime exceptions rather than configured caps. *)

exception Out_of_budget of reason

val resource_name : resource -> string
val pp_reason : Format.formatter -> reason -> unit

(** {1 Budgets} *)

type budget = {
  timeout : float option;  (** wall-clock seconds *)
  max_bdd_nodes : int option;  (** fresh hash-cons allocations per extent *)
  max_states : int option;  (** states per automaton construction *)
  max_steps : int option;  (** abstract solver steps per extent *)
}

val budget :
  ?timeout:float ->
  ?max_bdd_nodes:int ->
  ?max_states:int ->
  ?max_steps:int ->
  unit ->
  budget

val unlimited : budget
val is_unlimited : budget -> bool

val with_budget : budget -> (unit -> 'a) -> ('a, reason) result
(** Run a thunk under a budget for its dynamic extent.  Returns [Error]
    when the budget is exhausted mid-run, or when the thunk dies with
    [Stack_overflow] / [Out_of_memory]; solver state (caches, hash-cons
    tables) stays intact either way. *)

(** {1 Metering}

    Consumption accounting without enforcement, for callers that need to
    know what a computation {e cost} — the serve-mode compile cache
    weighs entries by the BDD nodes allocated while computing them, and
    per-client admission control charges actual wall-clock spend. *)

type usage = {
  wall_s : float;  (** elapsed wall-clock seconds *)
  nodes : int;  (** fresh hash-consed BDD/MTBDD nodes allocated *)
  steps : int;  (** abstract solver steps ({!tick} calls) *)
  formulas : int;  (** MSO formula nodes built ({!note_formula} calls) *)
}

val metered : (unit -> 'a) -> ('a, reason) result * usage
(** [metered f] runs [f] in a transparent accounting extent: no limits
    of its own (it inherits whatever remains of any enclosing budget),
    but the node, step and formula consumption of the extent — including nested
    {!with_budget} extents, which charge back on exit — is reported.
    Verdicts and fault-hit sequences are unaffected: the hooks merely
    count instead of being no-ops.  Exceptions are guarded exactly as
    by {!with_budget}. *)

(** {1 Per-client accounting}

    A {!Ledger.t} tracks how much wall-clock solving each client of a
    long-lived service has consumed recently, for admission control:
    spend decays exponentially (half-life [window]), and a client whose
    decayed debt exceeds its [allowance] is shed until the debt decays
    back under it.  All operations are thread-safe. *)

module Ledger : sig
  type t

  val create : ?window:float -> ?allowance:float -> unit -> t
  (** [window] (default 60s) is the decay half-life; [allowance]
      (default 30s) is the decayed debt, in wall-clock seconds of
      solving, above which {!admit} starts refusing.
      @raise Invalid_argument on non-positive parameters. *)

  val charge : ?now:float -> t -> client:string -> float -> unit
  (** Add [seconds] of consumption to the client's decayed debt. *)

  val debt : ?now:float -> t -> client:string -> float
  (** The client's decayed debt, in seconds. *)

  val admit : ?now:float -> t -> client:string -> (unit, string) result
  (** [Ok ()] if the client is under its allowance, [Error why] (a
      human-readable shed reason) otherwise. *)

  val retry_hint : ?now:float -> t -> client:string -> float
  (** Seconds until the client's decayed debt falls back to its
      allowance — [0.] if it is already admitted.  Servers send this to
      shed clients as a [retry-after] hint so their backoff is informed
      rather than blind (clients should still clamp it). *)

  val clients : t -> int
  (** Distinct clients with nonzero recorded debt. *)
end

(** {1 Slicing}

    Helpers for spreading one budget over [k] work items: take the
    absolute deadline once, then cut per-item slices of the remaining
    wall-clock time.  Per-extent caps (nodes, states, steps) are carried
    into every slice unchanged. *)

val now : unit -> float
(** The wall clock the engine reads ([Unix.gettimeofday]), so callers can
    report elapsed times consistently without their own [unix]
    dependency. *)

val absolute_deadline : budget -> float option
(** The wall-clock instant at which [budget] expires, or [None]. *)

val slice : budget -> deadline:float option -> over:int -> budget
(** [slice b ~deadline ~over] is [b] with its timeout replaced by an
    equal share of the time left until [deadline], split [over] ways. *)

val leftover : budget -> deadline:float option -> budget
(** [leftover b ~deadline] is [b] with its timeout replaced by all the
    time still left until [deadline] — the budget available to post-query
    self-validation once the query itself has returned.  When the query
    consumed everything, the resulting slice fails fast and the
    validators report their checks as skipped rather than eating into
    the next query's time. *)

(** {1 Cooperative check hooks}

    All four are no-ops (a single [ref] read) when no budget is
    installed. *)

val tick : unit -> unit
(** One abstract solver step; also polls the wall clock.  Called from
    coarse-grained loops: automaton exploration, minimization rounds,
    compile-cache misses, LIA eliminations. *)

val note_bdd_node : unit -> unit
(** One fresh hash-consed node; polls the wall clock every 1024
    allocations.  Called from the BDD/MTBDD unique-table [mk]. *)

val check_states : int -> unit
(** Raise if an automaton under construction has grown past the
    per-construction state cap. *)

val note_formula : unit -> unit
(** One MSO formula node built; counts toward {!usage.formulas} and
    limits nothing.  Called from [Mso.mk]. *)
