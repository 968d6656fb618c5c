(** Per-domain solver contexts.

    Every piece of ambient mutable solver state — the BDD/MTBDD
    hash-cons stores and memo tables, the MSO subformula cache, the
    tree-automata operation statistics — lives in a {!t}: a
    heterogeneous bag of {!Slot.t}s owned by the domain that created it.
    Each library that used to keep module-level globals declares a slot
    instead and reads it through {!get_current} on the {e current}
    context.

    The current context is domain-local: the first access from a fresh
    domain materializes a context owned by that domain, so two domains
    can never share memo tables by accident.  {!with_ctx} installs an
    explicit context for a dynamic extent (the worker loop of
    {!Pool} runs every query under a fresh one), and {!with_fresh} is
    the common one-shot form.

    Ownership is checked on every slot access: using a context on a
    domain other than its creator raises {!Ownership_violation}
    immediately instead of silently corrupting the tables it guards. *)

type t
(** A solver context.  Cheap to create; state is materialized per slot
    on first access. *)

exception Ownership_violation of string
(** Raised when a context is used from a domain that did not create it. *)

val create : unit -> t
(** A fresh, empty context owned by the calling domain. *)

val created : unit -> int
(** Total contexts created so far in this process, across all domains.
    Every cold-state query ({!with_fresh}) creates exactly one, so the
    serve-layer metrics use this as an honest count of cold solves —
    cache hits create none. *)

val with_ctx : t -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] as the current context,
    restoring the previous one afterwards (also on exceptions).
    @raise Ownership_violation if [ctx] was created by another domain. *)

val with_fresh : (unit -> 'a) -> 'a
(** [with_fresh f] = [with_ctx (create ()) f]: run [f] on cold solver
    state.  Queries that must be reproducible byte-for-byte regardless
    of what ran before them in the process (batch mode, differential
    tests) use this. *)

module Slot : sig
  type 'a slot
  (** A typed cell that every context carries (lazily initialized). *)

  val create : (unit -> 'a) -> 'a slot
  (** [create init] declares a new slot; [init] runs once per context,
      on first access.  Slots are declared at module-initialization
      time, one per piece of formerly-global state. *)
end

val get_current : 'a Slot.slot -> 'a
(** The slot's state in the calling domain's current context, created on
    first use.  Each domain lazily gets its own root context; {!with_ctx}
    overrides it for an extent. *)
