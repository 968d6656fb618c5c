(** The daemon's wire protocol: a line-framed, length-prefixed exchange
    over a Unix-domain stream socket.

    Requests (one header line, then an exact-length payload):
    {v
    SOLVE <nbytes> [key=value ...]\n<nbytes of program source>
    METRICS\n
    PING\n
    v}
    Option keys and values are space-free tokens (see
    {!Serve.options_of_assoc} for the vocabulary).

    Replies are uniform:
    {v
    <STATUS> <code> <nbytes> [key=value ...]\n<nbytes of payload>
    v}
    where [STATUS] is [REPLY], [ERROR], [OVERLOADED], [SERVER-UNKNOWN],
    [DRAINING], [METRICS], or [PONG], and [code] follows the CLI
    exit-code contract ({!Serve.reply_code}; 0 for [METRICS]/[PONG]).
    Trailing [key=value] hint tokens are advisory — today the only one
    is [retry-after=<seconds>] on [OVERLOADED] replies ({!Serve.reply_hints});
    readers must ignore hints they do not understand.

    Payload sizes are capped ({!max_payload}) so a garbled length field
    cannot make the server allocate unboundedly; an over-cap length is a
    {e typed} protocol error naming the cap, not a silent drop.

    The fault sites ["wire.read"] and ["wire.write"] tear reads and
    writes deterministically so both endpoints' torn-frame handling is
    testable. *)

type request =
  | Solve of { opts : (string * string) list; source : string }
  | Metrics
  | Ping

val max_payload : int
(** Upper bound on a request or reply payload (16 MiB). *)

val read_request : in_channel -> (request, string) result option
(** Read one request; [None] on a clean EOF, [Error] on a malformed
    header or truncated payload (the connection should be dropped after
    replying).  A read deadline expiring surfaces as the underlying
    [Sys_error] — callers translate it to a typed kick. *)

val write_request : out_channel -> request -> unit
(** Flushes.  @raise Sys_error on a broken transport (or an injected
    [wire.write] tear). *)

val read_reply : in_channel -> (string * int * string * (string * string) list) option
(** Read one [(status, code, payload, hints)] reply; [None] on EOF or a
    malformed header.  Unparsable hint tokens are ignored. *)

val write_reply :
  out_channel -> status:string -> code:int -> ?hints:(string * string) list ->
  string -> unit
(** Flushes.  @raise Sys_error on a broken transport (or an injected
    [wire.write] tear). *)
