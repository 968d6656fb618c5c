(** Durable, crash-safe snapshots of the daemon's reply cache.

    A snapshot is a single file of length-prefixed, individually
    CRC-checksummed records followed by a checksummed footer:

    {v
    "RTSNAP01"                                    8-byte magic + version
    ( u32 body-length | body | u32 crc32(body) )* one record per entry
    u32 0xFFFFFFFF | u32 count | u32 crc32(all bodies)   footer
    v}

    where a record body is
    [u16 keylen | key | u32 weight | u32 code | u32 textlen | text] —
    one {!Serve_cache} entry, oldest-first, so restoring in file order
    reproduces the LRU recency order.

    {!save} is atomic: write to a temp file in the same directory,
    [fsync], [rename] over the destination, [fsync] the directory.  A
    crash ([kill -9] included) at {e any} byte offset therefore leaves
    either the old snapshot or the new one — never a torn file — and the
    only debris is a temp file that the next {!save} sweeps away.

    {!load} trusts nothing: a bad magic, an implausible length, a CRC
    mismatch, or a short read stops parsing at the last good record and
    discards {e only} the bad suffix.  Because every kept record passed
    its own CRC, a recovered prefix can never contain a corrupted reply
    — the failure mode is lost warmth, never wrong bytes (the fuzz test
    flips/truncates at every offset to pin this).

    Fault sites [snapshot.write] (abort the temp-file write partway;
    {!save} must fail typed, clean up the temp file, and leave the old
    snapshot untouched) and [snapshot.load] (tear the read mid-record;
    {!load} must degrade to a valid prefix) make both paths
    deterministically testable. *)

type entry = string * int * (string * int)
(** [(key, weight, (text, code))] — the {!Serve_cache} entry triple. *)

type load_status =
  | Absent  (** no snapshot file: a cold start *)
  | Clean of int  (** footer verified; [n] entries restored *)
  | Recovered of { kept : int; dropped_bytes : int }
      (** a bad suffix was discarded: [kept] entries survived their CRCs,
          [dropped_bytes] trailing bytes (bad record + rest) were thrown
          away *)
  | Unreadable of string
      (** the file exists but nothing could be trusted (bad magic, short
          header, or an I/O error): start with an empty cache *)

val status_word : load_status -> string
(** One token for metrics: [absent], [clean], [recovered], or
    [unreadable]. *)

val describe : load_status -> string
(** One human line, e.g. ["recovered (3 entries, 57 trailing bytes
    discarded)"]. *)

val save : path:string -> entry list -> (int, string) result
(** Atomically replace the snapshot at [path] with the given entries
    (oldest-first).  [Ok bytes] on success; [Error] (typed, never an
    exception) on any I/O failure or an injected [snapshot.write] fault,
    in which case the previous snapshot — if any — is untouched and the
    temp file has been removed.  A successful save also sweeps stale
    temp files left at the same path by a [kill -9]'d predecessor. *)

val load : path:string -> entry list * load_status
(** Read whatever valid prefix [path] holds.  Never raises: every
    corruption mode degrades to fewer entries, and each returned entry
    is byte-identical to what some {!save} wrote. *)
