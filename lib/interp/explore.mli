(** Systematic exploration of parallel schedules.

    The paper's semantics interleaves parallel branches at statement
    granularity; this module {e executes} the interleavings — replaying
    the program from scratch through {!Interp.run_scheduled} under
    explicit decision sequences, breadth-first over the decision tree —
    rather than deriving unorderedness from one canonical run like
    {!Interp.races}.

    Its role is semantic cross-validation: a program proved data-race-free
    must be schedule-deterministic, while racy programs typically exhibit
    several observable outcomes. *)

type outcome = {
  heap_repr : string;  (** printed final heap *)
  returns : int list;  (** [Main]'s returned vector *)
}

type result = {
  schedules_run : int;
  exhausted : bool;  (** all interleavings explored within the budget *)
  outcomes : (outcome * int) list;  (** distinct outcomes with counts *)
}

val run_all :
  ?limit:int -> Blocks.t -> (unit -> Heap.tree) -> int list -> result
(** Explore interleavings of the program on fresh heaps produced by the
    thunk (default budget: 512 replays). *)

val deterministic :
  ?limit:int -> Blocks.t -> (unit -> Heap.tree) -> int list -> bool
(** Do all explored interleavings agree on the final heap and returns? *)
