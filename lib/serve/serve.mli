(** The solver daemon's core: options, typed replies, and the supervised
    query engine behind [retreet serve].

    The transport ({!Serve_server}, {!Serve_wire}) is a thin shell
    around {!Core.solve}, which owns the robustness pipeline:

    + {b admission control} — per-client wall-clock ledgers
      ({!Engine.Ledger}) plus a queue-depth cap shed load with a typed
      [Overloaded] reply instead of letting one client starve the rest;
    + {b reply cache} — a content-hash → rendered-reply LRU cache
      ({!Serve_cache}) under a node-denominated capacity carries warm
      state across queries without ever changing a byte of output;
    + {b supervision} — queries run on {!Pool.Supervised} worker
      domains; an uncaught crash is isolated, the worker restarted with
      bounded backoff, the query retried once, and only then degraded to
      a typed [Server_unknown] reply.  The daemon never dies with a
      query.

    Byte identity with [retreet batch] is a hard contract: a cache miss
    runs the query under exactly the per-query wrapping batch mode uses
    (fresh {!Solver_ctx}, budget guard, per-query fault arming on the
    worker domain), renders it with the same {!Validate.render_task} of
    {!Analysis.render_race}, and a cache hit replays those exact bytes. *)

(** {1 Query options} *)

type options = {
  client : string;  (** admission-control identity *)
  budget : Engine.budget;  (** per-query resource budget *)
  vlevel : Validate.level;  (** verdict self-validation level *)
  inject : (string * int * int) option;
      (** testing only: [(site, seed, period)] armed around the query *)
}

val default_options : options
(** Client ["anonymous"], unlimited budget, validation level
    [Witness] (the CLI defaults), no injection. *)

val options_of_assoc : (string * string) list -> (options, string) result
(** Decode wire [k=v] pairs ([client], [validate], [timeout],
    [max-nodes], [max-states], [max-steps], [inject]); unknown
    keys and unparsable values are errors.  [inject] takes the
    {!Faults.parse_spec} syntax; site-name existence is checked at solve
    time, where the registry is complete. *)

val options_to_assoc : options -> (string * string) list
(** Encode for the wire; [options_of_assoc (options_to_assoc o) = Ok o]. *)

(** {1 Replies} *)

type reply =
  | Verdict of { code : int; text : string }
      (** a solver verdict; [code] follows the CLI exit-code contract
          (0 proof, 1 counterexample, 3 unknown, 4 failed
          self-validation) and [text] is byte-identical to the batch
          per-program line *)
  | Bad_request of string  (** malformed options or program (exit 2) *)
  | Overloaded of { msg : string; retry_after : float }
      (** shed by admission control; [retry_after] (seconds, [0.] when
          no estimate) rides the wire as a [retry-after] hint so client
          backoff is informed rather than blind *)
  | Server_unknown of string
      (** the query crashed its worker on every attempt; the verdict is
          unknown but the daemon is healthy *)
  | Draining of string  (** the server is shutting down *)

val status_word : reply -> string
(** The wire status token: [REPLY], [ERROR], [OVERLOADED],
    [SERVER-UNKNOWN], or [DRAINING]. *)

val reply_code : reply -> int
(** The exit code a client should propagate: the verdict's own code, 2
    for [Bad_request], 3 for the rest (unknown-shaped degradations). *)

val reply_text : reply -> string

val reply_hints : reply -> (string * string) list
(** Advisory [key=value] header hints for {!Serve_wire.write_reply}:
    currently [retry-after] on a positive {!Overloaded} estimate. *)

val io_plane_site : string -> bool
(** Whether a registered fault-site name lives in the I/O plane
    ([wire.*], [snapshot.*], [accept]) rather than the solver plane, per
    {!Faults.site_plane} — the registry is the single source of the
    classification.  I/O-plane sites are armed on the server process
    ([retreet serve --inject]) or the client, never as per-query solve
    options — {!Core.solve} rejects them with a typed [Bad_request]. *)

val fingerprint : options:options -> source:string -> string
(** The content-hash cache key: a digest over the source and every
    verdict-affecting option (budget, validation level, injection spec —
    {e not} the client name, so identical queries share cache across
    clients). *)

(** {1 The daemon core} *)

module Core : sig
  type t

  val create :
    ?workers:int ->
    ?max_queue:int ->
    ?cache_nodes:int ->
    ?allowance:float ->
    ?window:float ->
    ?max_retries:int ->
    ?backoff:(int -> float) ->
    ?snapshot:string ->
    ?snapshot_every:int ->
    unit ->
    t
  (** [create ()] starts the supervised worker pool and empty caches.
      [workers] (default 2) solver domains; [max_queue] (default 64)
      caps the queued-job depth before shedding; [cache_nodes] (default
      [1_000_000]) is the reply cache's node-weight capacity ([0]
      disables caching); [allowance]/[window] (defaults 30s/60s)
      parameterize the per-client {!Engine.Ledger}; [max_retries]
      (default 1) and [backoff] are passed to {!Pool.Supervised.create}.

      [snapshot], when given, makes the reply cache durable: entries in
      the file (written by a previous process, {!Serve_snapshot}) are
      loaded now — corrupt suffixes silently dropped — and the cache is
      flushed back atomically every [snapshot_every] solved queries
      (default 64; [0] disables periodic saves) and on {!drain}. *)

  val solve : t -> options:options -> source:string -> reply
  (** Run one query through admission control, the reply cache, and the
      supervised pool.  Blocks the calling thread until the reply is
      known.  Thread-safe. *)

  val note_bad_request : t -> unit
  (** Count a request the transport rejected before it reached {!solve}
      (malformed wire options). *)

  val snapshot_info : t -> (string * int) option
  (** [(description, entries_loaded)] of the startup snapshot load —
      [None] when the core was created without a snapshot path. *)

  val metrics_text : t -> string
  (** The [--metrics] report: one [key value] line each for uptime, qps,
      shed/degraded counts, cache hit rate and occupancy, queue depth,
      worker crash/restart/retry counts, and p50/p99 solve time. *)

  val drain : ?grace:float -> t -> int
  (** Stop admitting queries ([solve] replies [Draining]), drain the
      pool ({!Pool.Supervised.drain}), and flush a final snapshot;
      returns the number of queries cut by the grace deadline. *)
end
