(** Deterministic, seeded fault injection for the solver substrates.

    The decision procedure's own correctness is validated empirically: a
    named {e fault site} sits in each hot path of the pipeline (BDD node
    construction, automaton exploration, MSO projection, LIA
    satisfiability), and the test suite {e arms} one site at a time to
    prove that the validation layer ({!Validate}) catches the resulting
    corruption — or that the pipeline masks it.

    Faults are deterministic: whether a site fires at its [k]-th hit
    depends only on the seed, the site name, and [k].  Disarmed, every
    hook is a single [ref] read (the same discipline as the
    {!Engine.tick} budget hooks), so the production path pays nothing.

    Armed runs may poison the solver's memo caches with corrupted
    entries; {!disarm} (and {!arm}) therefore flush every cache whose
    owner registered itself with {!on_flush}.  The hash-cons unique
    tables themselves are never corrupted — fault sites are placed
    {e above} the tables, so a flipped node is a well-formed diagram for
    the wrong function. *)

type site
(** A named fault site.  Sites are created once, at module-initialization
    time, by the substrate that hosts them. *)

exception Injected_crash of string
(** The injected stand-in for an uncaught worker crash.  Concurrency-layer
    sites ({e pool.submit}) do not corrupt solver state — they raise this
    exception from the victim's execution path so the supervision layer's
    crash handling (restart, requeue, typed degradation) is exercised by
    a real unwinding.  The payload names the site that fired. *)

type plane =
  | Solver
      (** Perturbs solver math (BDDs, automata, MSO compilation, LIA,
          the pool's scheduling).  Meaningful per query: [retreet batch]
          and the daemon re-arm these around each solve. *)
  | Io
      (** Perturbs transport or persistence (wire framing, snapshot
          files, the accept loop).  Meaningful only for the lifetime of
          the process that owns the file descriptors, so the daemon
          refuses them as per-query options — arm them with
          [retreet serve --inject] or on the client. *)

val register : ?plane:plane -> name:string -> descr:string -> unit -> site
(** Create and register a site.  [name] is the stable identifier used by
    {!arm}, tests, and the CLI ([--inject]); registering the same name
    twice returns the existing site.  [plane] (default {!Solver})
    classifies the site for the scoping rules above. *)

val site_name : site -> string

val plane_name : plane -> string
(** ["solver"] / ["io"] — the rendering used by [--inject list] and the
    usage text of [batch] and [serve]. *)

val all_sites : unit -> (string * string) list
(** All registered [(name, description)] pairs, sorted by name.  Forcing
    the substrate libraries (linking them) is the caller's concern: a
    site exists once its host module is initialized. *)

val list_sites : unit -> (string * string * plane) list
(** All registered [(name, description, plane)] triples, sorted by name —
    the single source of truth for every site listing the CLI renders
    (per-query vs daemon-scoped [--inject] help, ["--inject list"]). *)

val site_plane : string -> plane option
(** The plane of a registered site, or [None] for an unknown name. *)

(** {1 Arming} *)

val arm : ?period:int -> site:string -> seed:int -> unit -> unit
(** Arm one site: roughly one in [period] (default 13) of its hits fires,
    at seed-dependent positions.  Replaces any previously armed site.
    Resets hit counters and flushes registered caches, so runs are
    reproducible.  @raise Invalid_argument on an unknown site name or a
    non-positive period. *)

val disarm : unit -> unit
(** Disarm, reset counters, and flush registered caches (armed runs may
    have populated them with corrupted entries). *)

val armed : unit -> (string * int) option
(** The armed [(site, seed)], if any. *)

val parse_spec : string -> (string * int * int, string) result
(** Parse a ["SITE:SEED[:PERIOD]"] spec — the syntax of every [--inject]
    flag and of the daemon's [inject] solve option — into
    [(site, seed, period)].  [period] defaults to 13, as in {!arm}, and
    must be positive.  The site name is not looked up: callers check it
    against the registry ({!site_plane}) and word their own refusal.  The
    error reads ["bad inject spec \"SPEC\" (expected SITE:SEED[:PERIOD])"]. *)

val with_armed : (string * int * int) option -> (unit -> 'a) -> 'a
(** [with_armed (Some (site, seed, period)) f] arms the site on the
    calling domain, runs [f], and disarms, also when [f] raises.
    [with_armed None f] is [f ()]. *)

val fire : site -> bool
(** The hook: [true] iff [site] is armed and fires at this hit.  A single
    [ref] read when nothing is armed. *)

val hash_fraction : seed:int -> int -> float
(** [hash_fraction ~seed k] — a deterministic fraction in [[0, 1)] from
    the same multiplicative hash that drives the firing schedule.  Used
    wherever robustness code needs {e reproducible} jitter (client retry
    backoff, the chaos harness's event schedule) instead of
    [Random.float], which would make failures unreplayable. *)

val fired_count : site:string -> int
(** How many times the site actually fired since it was last armed.
    @raise Invalid_argument on an unknown site name. *)

(** {1 Cache flushing} *)

val on_flush : (unit -> unit) -> unit
(** Register a cache-flush callback.  Substrates with memo caches that
    may capture fault-corrupted results (BDD apply caches, the MSO
    compile cache) register a reset function at init time. *)
