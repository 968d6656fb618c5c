(** Domain pools for solving.

    {!Supervised} is the one scheduler: persistent worker domains, one
    job queue, crash isolation and drain.  {!run_batch} runs a batch of
    tasks on a short-lived {!Supervised} pool.

    [run_batch ~jobs tasks] executes every task and returns the results
    in submission order, regardless of which worker ran what or in which
    order — callers can rely on output being byte-identical for every
    [jobs].  Each task runs under a {e fresh} {!Solver_ctx} (cold
    hash-cons stores and memo caches), so a task's result is a pure
    function of the task alone: cache warmth from earlier tasks can
    never change fault-injection hit sequences, witness shapes, or
    verdicts.

    Budgets: each task receives a budget derived from [budget] — the
    node/state/step caps verbatim (they apply per query, as if each ran
    in its own process), and the wall-clock [timeout] replaced by this
    task's slice of the remaining time until the shared batch deadline
    ({!slice_share}).  The task is responsible for running its solver
    work under that budget (e.g. by passing it to
    {!Validate.check_data_race}).  Once the batch deadline passes,
    tasks that have not started are cancelled cooperatively without
    running: they report [Error] with an {!Engine.Wall_clock} reason.
    Cancellation never flips a verdict — a cancelled task yields
    [Error], which callers surface as "unknown". *)

val slice_share : left:float -> remaining:int -> jobs:int -> float
(** [slice_share ~left ~remaining ~jobs] is the wall-clock slice (in
    seconds) granted to the next task to start, when [left] seconds
    remain until the batch deadline and [remaining] tasks (including
    this one) have not yet started on [jobs] workers.  The tasks still
    to run need at least [ceil (remaining / jobs)] sequential rounds, so
    each task may spend [left /. rounds].  Never negative; [0.] once
    [left <= 0.] or [remaining <= 0].  Pure — exercised directly by
    unit tests. *)

val run_batch :
  jobs:int ->
  ?budget:Engine.budget ->
  (Engine.budget -> 'a) list ->
  ('a, Engine.reason) result list
(** [run_batch ~jobs ?budget tasks] runs the tasks on a {!Supervised}
    pool with [max 1 jobs] workers (never more than there are tasks),
    the calling domain being one of them, and returns one result per
    task, in submission order.  Tasks must not share mutable state:
    each runs under a fresh {!Solver_ctx} on whichever worker picked it
    up, receiving its per-query budget slice as argument.  An
    {!Engine.Out_of_budget} (or stack/heap exhaustion) escaping a task
    degrades that task to [Error]; any other exception is a batch-level
    failure: the tasks not yet started are cancelled, and the first such
    exception is re-raised on the calling domain after the pool has
    drained. *)

(** {1 Supervised persistent pool}

    The scheduler behind {!run_batch} and [retreet serve]: worker
    domains outlive any individual job, an uncaught exception escaping
    a job ("a worker crash") is isolated — the crash kills only that
    worker domain, the supervisor respawns it with bounded exponential
    backoff, and the in-flight job is requeued for bounded retry before
    degrading to a typed {!Supervised.Crashed} outcome.  The pool itself
    never dies. *)

module Supervised : sig
  type 'a t
  (** A pool of worker domains executing [unit -> 'a] jobs.  Jobs are
      responsible for their own solver hygiene (fresh {!Solver_ctx},
      budget guards): any exception that escapes a job is treated as a
      worker crash, not a result. *)

  type 'a outcome =
    | Done of 'a
    | Crashed of { attempts : int; last_exn : string }
        (** every attempt (1 + retries) died on a worker crash *)
    | Cancelled of string
        (** drain cut the job before a worker completed it *)

  type stats = {
    submitted : int;  (** jobs accepted by {!submit}/{!run} *)
    completed : int;  (** jobs resolved [Done] *)
    crashes : int;  (** worker crashes observed *)
    restarts : int;  (** worker domains respawned after a crash *)
    retries : int;  (** jobs requeued after their worker crashed *)
    max_depth : int;  (** high-water mark of the job queue *)
  }

  val default_backoff : int -> float
  (** [default_backoff k] — delay before the [k]-th consecutive respawn
      of a worker slot: [min 0.5 (0.01 *. 2. ** k)] seconds (bounded
      exponential). *)

  val create :
    workers:int ->
    ?max_retries:int ->
    ?backoff:(int -> float) ->
    unit ->
    'a t
  (** Spawn [workers] worker domains (none if [workers <= 0]: then only
      callers of {!work} run jobs), each watched by a supervisor
      thread.  [max_retries] (default 1) bounds how many times a job is
      requeued after a crash before resolving [Crashed]; [backoff]
      (default {!default_backoff}) maps a slot's consecutive-restart
      count to the pre-respawn delay in seconds. *)

  type 'a ticket
  (** A handle on a submitted job. *)

  val submit : 'a t -> (unit -> 'a) -> 'a ticket
  (** Enqueue a job without blocking.  The ["pool.submit"] fault
      decision is made here, on the calling thread's
      domain — callers that arm a site per request should hold their
      arming lock only across this call, not across {!await}. *)

  val await : 'a t -> 'a ticket -> 'a outcome
  (** Block the calling thread until the job resolves. *)

  val run : 'a t -> (unit -> 'a) -> 'a outcome
  (** [run t work] = [await t (submit t work)].  Thread-safe; any number
      of callers may have jobs in flight. *)

  val work : 'a t -> unit
  (** Lend the calling thread to the pool: run queued jobs on it until
      the queue is empty, then return.  A job that raises counts as a
      crash, as on a worker domain (requeued, then [Crashed]), but the
      calling thread survives it. *)

  val depth : 'a t -> int
  (** Jobs queued and not yet picked up by a worker (admission signal). *)

  val stats : 'a t -> stats

  val drain : ?grace:float -> 'a t -> int
  (** Stop the pool: no further submissions are accepted ([run] after
      [drain] returns [Cancelled]), queued and in-flight jobs get up to
      [grace] seconds (default 5) to finish, then the still-queued tail
      is resolved [Cancelled] and workers exit as they come free.
      Returns the number of cancelled jobs.  Idempotent. *)
end
