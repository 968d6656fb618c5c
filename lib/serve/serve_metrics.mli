(** Daemon counters and solve-time percentiles.

    A thread-safe bag of monotone counters plus a bounded ring of recent
    solve wall-times, from which the [--metrics] endpoint derives qps
    and p50/p99.  Counting is cheap enough to do on every request; the
    percentile sort happens only when a report is rendered. *)

type t

type counter =
  | Queries  (** SOLVE requests accepted for processing *)
  | Overloaded  (** requests shed by admission control *)
  | Server_unknown  (** queries degraded after repeated worker crashes *)
  | Draining  (** requests refused or cut by drain *)
  | Bad_requests  (** malformed protocol, options, or programs *)

val create : unit -> t
(** A fresh bag; uptime is measured from this call. *)

val incr : t -> counter -> unit
val count : t -> counter -> int

val record_solve : t -> float -> unit
(** Record the wall-time of one cache-miss solve (seconds).  The ring
    keeps the most recent 512 samples for the percentiles. *)

val solves : t -> int
(** Solves recorded so far (≥ samples resident in the ring). *)

val percentile : t -> float -> float
(** [percentile t 0.99] — nearest-rank percentile of the resident solve
    times, in seconds; [0.] when no solve has been recorded. *)

val uptime : t -> float
(** Seconds since {!create}. *)
