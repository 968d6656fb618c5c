(* Resource governance: cooperative budgets for the solving pipeline.
   See engine.mli for the contract. *)

type resource =
  | Wall_clock
  | Bdd_nodes
  | Auto_states
  | Solver_steps
  | Heap_memory
  | Call_stack

type reason = { resource : resource; used : int; limit : int }

exception Out_of_budget of reason

let resource_name = function
  | Wall_clock -> "wall-clock"
  | Bdd_nodes -> "BDD-node"
  | Auto_states -> "automaton-state"
  | Solver_steps -> "solver-step"
  | Heap_memory -> "heap-memory"
  | Call_stack -> "call-stack"

let pp_reason ppf r =
  match r.resource with
  | Heap_memory -> Fmt.string ppf "out of heap memory"
  | Call_stack -> Fmt.string ppf "call stack overflow"
  | Wall_clock ->
    Fmt.pf ppf "wall-clock budget exhausted (%dms elapsed, limit %dms)"
      r.used r.limit
  | Bdd_nodes | Auto_states | Solver_steps ->
    Fmt.pf ppf "%s budget exhausted (%d used, limit %d)"
      (resource_name r.resource) r.used r.limit

type budget = {
  timeout : float option;
  max_bdd_nodes : int option;
  max_states : int option;
  max_steps : int option;
}

let budget ?timeout ?max_bdd_nodes ?max_states ?max_steps () =
  { timeout; max_bdd_nodes; max_states; max_steps }

let unlimited =
  { timeout = None; max_bdd_nodes = None; max_states = None; max_steps = None }

let is_unlimited b = b = unlimited

(* The installed budget for the innermost [with_budget] extent.  Limits
   are pre-merged with the parent's remainders at install time, so the
   hooks only ever consult this one record. *)
type state = {
  deadline : float;  (* absolute; [infinity] = no deadline *)
  timeout_ms : int;  (* effective timeout at install, for reporting *)
  started : float;
  node_limit : int;  (* [max_int] = no cap *)
  state_limit : int;
  step_limit : int;
  mutable nodes : int;
  mutable steps : int;
}

(* The installed budget is domain-local: each domain (pool workers
   included) runs its own nest of [with_budget] extents, and a budget
   installed on one domain never throttles another. *)
let dls_current : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get dls_current

let out resource used limit = raise (Out_of_budget { resource; used; limit })

let check_deadline st =
  if st.deadline < infinity then begin
    let now = Unix.gettimeofday () in
    if now >= st.deadline then
      out Wall_clock
        (int_of_float ((now -. st.started) *. 1000.))
        st.timeout_ms
  end

let tick () =
  match !(current ()) with
  | None -> ()
  | Some st ->
    st.steps <- st.steps + 1;
    if st.steps > st.step_limit then out Solver_steps st.steps st.step_limit;
    check_deadline st

let note_bdd_node () =
  match !(current ()) with
  | None -> ()
  | Some st ->
    st.nodes <- st.nodes + 1;
    if st.nodes > st.node_limit then out Bdd_nodes st.nodes st.node_limit;
    if st.nodes land 1023 = 0 then check_deadline st

let check_states n =
  match !(current ()) with
  | None -> ()
  | Some st -> if n > st.state_limit then out Auto_states n st.state_limit

let now () = Unix.gettimeofday ()

let absolute_deadline b =
  match b.timeout with
  | None -> None
  | Some s -> Some (Unix.gettimeofday () +. s)

let slice b ~deadline ~over =
  match deadline with
  | None -> { b with timeout = None }
  | Some d ->
    let left = d -. Unix.gettimeofday () in
    { b with timeout = Some (max 0. (left /. float_of_int (max over 1))) }

let leftover b ~deadline = slice b ~deadline ~over:1

let install b =
  let now = Unix.gettimeofday () in
  let p_deadline, p_nodes, p_states, p_steps =
    match !(current ()) with
    | None -> (infinity, max_int, max_int, max_int)
    | Some p ->
      ( p.deadline,
        (if p.node_limit = max_int then max_int
         else max 0 (p.node_limit - p.nodes)),
        p.state_limit,
        if p.step_limit = max_int then max_int
        else max 0 (p.step_limit - p.steps) )
  in
  let own_deadline =
    match b.timeout with None -> infinity | Some s -> now +. s
  in
  let deadline = min p_deadline own_deadline in
  let cap own inherited =
    match own with None -> inherited | Some x -> min x inherited
  in
  {
    deadline;
    timeout_ms =
      (if deadline = infinity then 0
       else int_of_float ((deadline -. now) *. 1000.));
    started = now;
    node_limit = cap b.max_bdd_nodes p_nodes;
    state_limit = cap b.max_states p_states;
    step_limit = cap b.max_steps p_steps;
    nodes = 0;
    steps = 0;
  }

let guarded f =
  match f () with
  | v -> Ok v
  | exception Out_of_budget r -> Error r
  | exception Stack_overflow ->
    Error { resource = Call_stack; used = 0; limit = 0 }
  | exception Out_of_memory ->
    Error { resource = Heap_memory; used = 0; limit = 0 }

type usage = { wall_s : float; nodes : int; steps : int }

let metered f =
  (* Like the installing branch of [with_budget unlimited], but the
     state is always installed (so the hooks count) and its counters are
     read back before restoring.  Limits are the parent's remainders, so
     metering never tightens anything. *)
  let cell = current () in
  let parent = !cell in
  let st = install unlimited in
  cell := Some st;
  let r = guarded f in
  let u =
    { wall_s = Unix.gettimeofday () -. st.started;
      nodes = st.nodes;
      steps = st.steps }
  in
  cell := parent;
  (match parent with
  | Some p ->
    p.nodes <- p.nodes + st.nodes;
    p.steps <- p.steps + st.steps
  | None -> ());
  (r, u)

let with_budget b f =
  let cell = current () in
  let parent = !cell in
  if parent = None && is_unlimited b then
    (* the default path: no state installed, hooks stay no-ops *)
    guarded f
  else begin
    let st = install b in
    cell := Some st;
    let restore () =
      cell := parent;
      match parent with
      | Some p ->
        (* charge consumption back so sibling extents share the caps *)
        p.nodes <- p.nodes + st.nodes;
        p.steps <- p.steps + st.steps
      | None -> ()
    in
    let r =
      guarded (fun () ->
          (* fail fast on an already-exhausted slice *)
          check_deadline st;
          f ())
    in
    restore ();
    r
  end

(* --- per-client accounting ------------------------------------------ *)

module Ledger = struct
  (* Exponentially-decayed spend per client: debt halves every [window]
     seconds.  Stored as (debt at [stamp]); reading decays on the fly. *)
  type entry = { mutable debt : float; mutable stamp : float }

  type t = {
    window : float;
    allowance : float;
    tbl : (string, entry) Hashtbl.t;
    m : Mutex.t;
  }

  let create ?(window = 60.) ?(allowance = 30.) () =
    if window <= 0. then invalid_arg "Ledger.create: window must be positive";
    if allowance <= 0. then
      invalid_arg "Ledger.create: allowance must be positive";
    { window; allowance; tbl = Hashtbl.create 16; m = Mutex.create () }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let decay t e now =
    if now > e.stamp then begin
      e.debt <- e.debt *. (0.5 ** ((now -. e.stamp) /. t.window));
      e.stamp <- now
    end

  let entry t client now =
    match Hashtbl.find_opt t.tbl client with
    | Some e ->
      decay t e now;
      e
    | None ->
      let e = { debt = 0.; stamp = now } in
      Hashtbl.add t.tbl client e;
      e

  let charge ?now t ~client seconds =
    let now = match now with Some n -> n | None -> Unix.gettimeofday () in
    locked t (fun () ->
        let e = entry t client now in
        e.debt <- e.debt +. max 0. seconds)

  let debt ?now t ~client =
    let now = match now with Some n -> n | None -> Unix.gettimeofday () in
    locked t (fun () -> (entry t client now).debt)

  let admit ?now t ~client =
    let now = match now with Some n -> n | None -> Unix.gettimeofday () in
    locked t (fun () ->
        let e = entry t client now in
        if e.debt <= t.allowance then Ok ()
        else
          Error
            (Printf.sprintf
               "client %S over budget: %.1fs of recent solving (allowance \
                %.1fs, half-life %.0fs)"
               client e.debt t.allowance t.window))

  let retry_hint ?now t ~client =
    let now = match now with Some n -> n | None -> Unix.gettimeofday () in
    locked t (fun () ->
        let e = entry t client now in
        if e.debt <= t.allowance then 0.
        else
          (* debt * 2^(-dt/window) = allowance  ⇒  dt = window·log2(debt/allowance) *)
          t.window *. (Float.log (e.debt /. t.allowance) /. Float.log 2.))

  let clients t =
    locked t (fun () ->
        Hashtbl.fold (fun _ e n -> if e.debt > 0. then n + 1 else n) t.tbl 0)
end
