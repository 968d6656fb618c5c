(** Reference interpreter for Retreet programs, with a dynamic dependence
    oracle.

    Execution follows the paper's semantics (call-by-value, statement-
    level atomicity).  Every iteration — the execution of a non-call block
    on a node — is recorded together with the snapshot of the call stack,
    i.e. exactly the {e configuration} of Section 3; two iterations are
    unordered iff their configurations diverge at a parallel pair of
    blocks.  This lets the test suite and the counterexample replayers
    cross-check every MSO verdict on concrete trees. *)

type frame_id = int * Ast.dir list
(** Creating call block ([-1] for the [Main] frame) and the frame node's
    absolute path. *)

(** A concrete storage location. *)
type loc =
  | LField of Ast.dir list * string  (** field of the node at a path *)
  | LVar of frame_id * string  (** local variable of a frame *)

val pp_path : Format.formatter -> Ast.dir list -> unit

val pp_loc : Format.formatter -> loc -> unit

(** One recorded iteration. *)
type event = {
  ev_block : int;  (** the non-call block executed *)
  ev_path : Ast.dir list;  (** absolute path of the frame node *)
  ev_stack : (int * Ast.dir list) list;
      (** the configuration: (call block, node path) pairs, outermost
          first; the head is the [Main] frame [(-1, [])] *)
  ev_reads : loc list;
  ev_writes : loc list;
}

type result = { events : event list; returns : int list }

exception Runtime_error of string

val run : Blocks.t -> Heap.tree -> int list -> result
(** Execute [Main] on the heap with the given [Int] arguments.  The heap
    is mutated in place.  @raise Runtime_error on nil dereference or
    arity mismatch. *)

val run_scheduled :
  record:bool -> (unit -> int) -> Blocks.t -> Heap.tree -> int list -> result
(** [run_scheduled ~record choose] is {!run} under an explicit schedule.
    Each call block, straight-line block and branch condition is one
    atomic step; [choose ()] is consulted whenever both arms of a parallel
    composition can step, and picks the left arm on [0], the right one
    otherwise.  {!run} is [run_scheduled ~record:true (fun () -> 0)];
    with [~record:false] no event is recorded ([events] is empty). *)

val unordered : Blocks.t -> event -> event -> bool
(** Do the two iterations' configurations diverge at a parallel pair of
    blocks (Section 3's schedule relation, on concrete stacks)? *)

val conflicting : event -> event -> loc list
(** Locations accessed by both iterations with at least one write. *)

type race = { race_e1 : event; race_e2 : event; race_loc : loc }

val races : Blocks.t -> event list -> race list
(** All racy pairs in a trace: unordered iterations with a conflict. *)

val equivalent_on : Blocks.t -> Blocks.t -> Heap.tree -> int list -> bool
(** Run two programs on copies of the same heap; [true] iff the final
    heaps and [Main]'s returned vectors agree. *)
