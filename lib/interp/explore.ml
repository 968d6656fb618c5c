(** Systematic exploration of parallel schedules.

    The paper's semantics interleaves parallel branches at statement
    granularity ("every execution is a serialized interleaving of atomic
    statements").  {!Interp.run} executes one canonical schedule and
    derives unorderedness from the recorded configurations; this module
    is only a scheduler that makes {!Interp.run_scheduled} execute the
    other schedules: every interleaving of the parallel arms (up to a
    budget), replaying the program from scratch under an explicit
    decision sequence.

    Its role is semantic cross-validation: a program proved data-race-free
    must be schedule-deterministic — every interleaving yields the same
    final heap and return vector — while racy programs typically exhibit
    several observable outcomes.  The test suite checks both directions
    against the static verdicts. *)

(* One replay under a decision prefix; decisions beyond the prefix default
   to 0 and are appended, so the returned list is the complete schedule. *)
let replay (info : Blocks.t) (mk_heap : unit -> Heap.tree) (args : int list)
    (prefix : int list) : Heap.tree * int list * int list =
  let heap = mk_heap () in
  let taken = ref [] in
  let pending = ref prefix in
  let choose () =
    let d =
      match !pending with
      | d :: rest ->
        pending := rest;
        d
      | [] -> 0
    in
    taken := d :: !taken;
    d
  in
  let { Interp.returns; _ } =
    Interp.run_scheduled ~record:false choose info heap args
  in
  (heap, returns, List.rev !taken)

type outcome = { heap_repr : string; returns : int list }

type result = {
  schedules_run : int;
  exhausted : bool;  (** all interleavings explored within the budget *)
  outcomes : (outcome * int) list;  (** distinct outcomes with counts *)
}

(** Explore interleavings of the program on (fresh copies of) the heap
    produced by [mk_heap], breadth-first over the binary schedule
    decisions, up to [limit] replays. *)
let run_all ?(limit = 512) (info : Blocks.t) (mk_heap : unit -> Heap.tree)
    (args : int list) : result =
  let outcomes : (outcome, int) Hashtbl.t = Hashtbl.create 8 in
  let count = ref 0 in
  (* breadth-first over decision prefixes: flips at early positions are
     tried before the combinatorial tail, so schedule diversity appears
     within a small budget *)
  let queue = Queue.create () in
  Queue.add [] queue;
  while (not (Queue.is_empty queue)) && !count < limit do
    let prefix = Queue.pop queue in
    incr count;
    let heap, returns, taken = replay info mk_heap args prefix in
    let o = { heap_repr = Fmt.str "%a" Heap.pp heap; returns } in
    Hashtbl.replace outcomes o
      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes o));
    (* branch on every defaulted decision beyond the prefix *)
    let np = List.length prefix in
    List.iteri
      (fun i _ ->
        if i >= np then
          Queue.add (List.filteri (fun j _ -> j < i) taken @ [ 1 ]) queue)
      taken
  done;
  {
    schedules_run = !count;
    exhausted = Queue.is_empty queue;
    outcomes = Hashtbl.fold (fun o n acc -> (o, n) :: acc) outcomes [];
  }

(** Is the program schedule-deterministic on this heap (all explored
    interleavings agree on the final heap and returns)? *)
let deterministic ?limit info mk_heap args : bool =
  List.length (run_all ?limit info mk_heap args).outcomes <= 1
