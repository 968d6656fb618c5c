(** The [retreet serve] daemon shell: a Unix-domain socket front-end for
    {!Serve.Core}.

    One accept loop (its own thread) hands each connection to a handler
    thread; solving itself happens on the core's supervised worker
    domains, so a slow query never blocks accepting.  Each connection
    carries a read deadline ([SO_RCVTIMEO]): a client that stalls
    mid-frame or sits silently on an open connection is kicked with a
    typed error instead of wedging a handler slot forever.

    Two entry points share the machinery: {!run} is the CLI's blocking
    loop (SIGTERM/SIGINT trigger the drain), while {!start} / {!stop}
    expose the same server in-process so the protocol fuzzer, the chaos
    harness, and the benchmarks can stand up a real listener inside the
    test binary.

    Draining — by signal or {!stop} — closes the listener, gives
    in-flight queries the remaining grace slice, cuts the still-queued
    tail with typed [DRAINING] replies, and flushes a final cache
    snapshot when one is configured. *)

type t
(** A started server: listener bound, accept loop running. *)

val start :
  socket:string ->
  ?workers:int ->
  ?max_queue:int ->
  ?cache_nodes:int ->
  ?allowance:float ->
  ?window:float ->
  ?grace:float ->
  ?read_deadline:float ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?inject:string * int * int ->
  unit ->
  (t, string) result
(** Bind [socket] and start accepting.  A stale socket file left by a
    dead server is detected (nothing accepts on it) and replaced; a
    {e live} server on the same path is an [Error].  Core parameters are
    those of {!Serve.Core.create}; [grace] (default 5s) bounds the
    drain; [read_deadline] (default 30s, [0.] disables) is the
    per-connection silence limit; [inject] arms a fault site on the
    server process for the accept loop's lifetime — this is how the
    I/O-plane sites ([wire.*], [snapshot.*], [accept]) are exercised
    server-side, since {!Serve.Core.solve} refuses them as per-query
    options. *)

val stop : t -> int
(** Ask the accept loop to stop, wait for it to exit, then drain: close
    the listener, unlink the socket, drain the core (final snapshot
    included), and give handler threads a bounded moment to flush their
    last replies.  Returns the number of queries cut by the grace
    deadline.  Idempotent. *)

val run :
  socket:string ->
  ?workers:int ->
  ?max_queue:int ->
  ?cache_nodes:int ->
  ?allowance:float ->
  ?window:float ->
  ?grace:float ->
  ?read_deadline:float ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?inject:string * int * int ->
  unit ->
  int
(** The CLI entry: block SIGTERM/SIGINT process-wide, {!start}, wait
    for a signal synchronously ([Thread.wait_signal] — an async handler
    can wedge when every thread of an idle daemon is parked outside the
    runtime), then stop the accept loop, drain, print the final
    metrics report (cache and snapshot stats included) to stdout.
    Returns the process exit code (0 after a clean drain, 2 when the
    listener could not be set up). *)
