(** Concrete interpreter for Retreet programs, with a dynamic dependence
    oracle.

    Execution follows the paper's semantics: call-by-value, statement-level
    atomicity, and — for the oracle — every iteration (execution of a
    non-call block on a node) is recorded together with the snapshot of the
    call stack, i.e. exactly the {e configuration} of Section 3.  Two
    iterations are unordered iff their configurations diverge at a parallel
    pair of blocks; a race is an unordered conflicting pair.  This lets the
    test suite replay MSO verdicts on concrete trees.

    This is the only code that executes Retreet statements: a run is a
    process of atomic steps, {!run} takes its left-first schedule and
    {!Explore} drives the others through {!run_scheduled}. *)

type frame_id = int * Ast.dir list
(** Creating call block ([-1] for the [Main] frame) and the frame node's
    absolute path. *)

type loc =
  | LField of Ast.dir list * string  (** field of the node at a path *)
  | LVar of frame_id * string  (** local variable of a frame *)

let pp_path ppf p =
  if p = [] then Fmt.string ppf "root"
  else Fmt.(list ~sep:nop Ast.pp_dir) ppf p

let pp_loc ppf = function
  | LField (p, f) -> Fmt.pf ppf "%a.%s" pp_path p f
  | LVar ((c, p), x) -> Fmt.pf ppf "%s@%d:%a" x c pp_path p

type event = {
  ev_block : int;  (** the non-call block executed *)
  ev_path : Ast.dir list;  (** absolute path of the frame node *)
  ev_stack : (int * Ast.dir list) list;
      (** configuration: (call block, node path) outermost first; the head
          is the [Main] frame [(-1, [])] *)
  ev_reads : loc list;
  ev_writes : loc list;
}

type result = { events : event list; returns : int list }

exception Runtime_error of string

let error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* A run is a process: a tree of pending atomic steps, one per call
   block, straight-line block and branch condition, with a [Par] node per
   parallel composition.  Frame state lives in the closures. *)
type proc =
  | Done
  | Step of (unit -> proc)  (** one atomic statement *)
  | Par of proc * proc * (unit -> proc)
      (** two arms and the continuation once both finish *)

(* Advance a process that is not [Done] by one atomic step.  [choose] is
   consulted whenever both arms of a parallel node can step; [0] picks
   the left one. *)
let rec step choose = function
  | Done -> Done
  | Step f -> f ()
  | Par (Done, Done, k) -> k ()
  | Par (a, Done, k) -> Par (step choose a, Done, k)
  | Par (Done, b, k) -> Par (Done, step choose b, k)
  | Par (a, b, k) ->
    if choose () = 0 then Par (step choose a, b, k)
    else Par (a, step choose b, k)

let run_scheduled ~record choose (info : Blocks.t) (heap : Heap.tree)
    (main_args : int list) : result =
  let events = ref [] in
  let finished () = Done in
  (* The process that executes function [fname] on [tree] (at absolute
     path [path]) and passes its returned vector to [k]; the frame was
     created by call block [call_id] from frame [caller], and a [return]
     inside writes the caller's [lhs] variables. *)
  let rec exec_fun ~stack ~call_id ~caller ~lhs fname tree path args k =
    let func =
      match Ast.find_func info.prog fname with
      | Some f -> f
      | None -> error "call to undefined function %s" fname
    in
    let frame : frame_id = (call_id, path) in
    let stack = stack @ [ frame ] in
    let vars : (string, int) Hashtbl.t = Hashtbl.create 8 in
    (if List.length args <> List.length func.int_params then
       error "%s: expected %d Int arguments, got %d" fname
         (List.length func.int_params) (List.length args));
    List.iter2 (fun p v -> Hashtbl.replace vars p v) func.int_params args;
    let returned = ref [] in
    (* reads performed by branch conditions, charged to the next
       straight-line block of this frame *)
    let pending_reads = ref [] in
    let read_var reads x =
      if record then reads := LVar (frame, x) :: !reads;
      match Hashtbl.find_opt vars x with Some v -> v | None -> 0
    in
    let deref p =
      match Heap.descend tree p with
      | Some t -> t
      | None -> error "%s: dereference of nil at %a" fname Ast.pp_lexpr p
    in
    let read_field reads p f =
      let t = deref p in
      if Heap.is_nil t then error "%s: field read %a.%s on nil" fname
          Ast.pp_lexpr p f;
      if record then reads := LField (path @ p, f) :: !reads;
      Heap.get_field t f
    in
    let rec eval reads = function
      | Ast.Num k -> k
      | Ast.Var x -> read_var reads x
      | Ast.Field (p, f) -> read_field reads p f
      | Ast.Add (a, b) -> eval reads a + eval reads b
      | Ast.Sub (a, b) -> eval reads a - eval reads b
    in
    let eval_cond reads (c : Ast.bexpr) =
      let rec go = function
        | Ast.BTrue -> true
        | Ast.NotB b -> not (go b)
        | Ast.IsNilB p -> Heap.is_nil (deref p)
        | Ast.Gt0 e -> eval reads e > 0
      in
      go c
    in
    (* The process of statement [s], continuing with [k]. *)
    let rec exec (s : Blocks.astmt) k =
      match s with
      | Blocks.ABlock id -> Step (fun () -> exec_block id k)
      | Blocks.AIf (cid, flipped, s1, s2) ->
        Step
          (fun () ->
            let v =
              match cid with
              | None -> not flipped
              | Some cid ->
                let base = eval_cond pending_reads (Blocks.cond info cid).cond in
                if flipped then not base else base
            in
            exec (if v then s1 else s2) k)
      | Blocks.ASeq (a, b) -> exec a (fun () -> exec b k)
      | Blocks.APar (a, b) -> Par (exec a finished, exec b finished, k)
    and exec_block id k =
      let b = Blocks.block info id in
      match b.block with
      | Ast.Call c ->
        let reads = ref [] in
        let args = List.map (eval reads) c.args in
        (* Argument evaluation is part of the call protocol and is not an
           iteration; mirroring the static analysis, its reads are not
           recorded as an event. *)
        let target = deref c.target in
        exec_fun ~stack ~call_id:id ~caller:(Some frame) ~lhs:c.lhs c.callee
          target (path @ c.target) args (fun rets ->
            List.iteri
              (fun i x ->
                Hashtbl.replace vars x
                  (match List.nth_opt rets i with Some v -> v | None -> 0))
              c.lhs;
            k ())
      | Ast.Straight assigns ->
        let reads = ref (List.rev !pending_reads) in
        pending_reads := [];
        let writes = ref [] in
        let write l = if record then writes := l :: !writes in
        List.iter
          (fun a ->
            match a with
            | Ast.SetVar (x, e) ->
              let v = eval reads e in
              write (LVar (frame, x));
              Hashtbl.replace vars x v
            | Ast.SetField (p, f, e) ->
              let v = eval reads e in
              let t = deref p in
              if Heap.is_nil t then
                error "%s: field write %a.%s on nil" fname Ast.pp_lexpr p f;
              write (LField (path @ p, f));
              Heap.set_field t f v
            | Ast.Return es ->
              returned := List.map (eval reads) es;
              (* the return writes the caller's receiving variables *)
              (match caller with
              | Some caller when es <> [] ->
                List.iter (fun x -> write (LVar (caller, x))) lhs
              | _ -> ()))
          assigns;
        if record then
          events :=
            {
              ev_block = id;
              ev_path = path;
              ev_stack = stack;
              ev_reads = List.sort_uniq compare !reads;
              ev_writes = List.sort_uniq compare !writes;
            }
            :: !events;
        k ()
    in
    exec (Blocks.body_of info fname) (fun () -> k !returned)
  in
  let returns = ref [] in
  let rec drive = function Done -> () | p -> drive (step choose p) in
  drive
    (exec_fun ~stack:[] ~call_id:(-1) ~caller:None ~lhs:[] "Main" heap []
       main_args (fun r ->
         returns := r;
         Done));
  { events = List.rev !events; returns = !returns }

let run info heap main_args =
  run_scheduled ~record:true (fun () -> 0) info heap main_args

(* ------------------------------------------------------------------ *)
(* Dynamic dependence oracle                                           *)

(** Are two recorded iterations unordered, i.e. do their configurations
    diverge at a pair of parallel blocks?  (Section 3 of the paper, on
    concrete stacks.) *)
let unordered (info : Blocks.t) (e1 : event) (e2 : event) : bool =
  let s1 = e1.ev_stack @ [ (e1.ev_block, e1.ev_path) ] in
  let s2 = e2.ev_stack @ [ (e2.ev_block, e2.ev_path) ] in
  let rec diverge l1 l2 =
    match (l1, l2) with
    | (b1, p1) :: r1, (b2, p2) :: r2 ->
      if b1 = b2 && p1 = p2 then diverge r1 r2
      else if b1 = b2 || b1 < 0 || b2 < 0 then false
      else if not (Blocks.same_func info b1 b2) then false
      else Blocks.order info b1 b2 = Blocks.Par
    | _ -> false
  in
  diverge s1 s2

let conflicting (e1 : event) (e2 : event) : loc list =
  let hits xs ys = List.filter (fun x -> List.mem x ys) xs in
  hits (e1.ev_reads @ e1.ev_writes) e2.ev_writes
  @ hits e1.ev_writes e2.ev_reads
  |> List.sort_uniq compare

type race = { race_e1 : event; race_e2 : event; race_loc : loc }

(** All racy pairs in a trace: unordered iterations with a conflicting
    access, in the order of the pairs' indices.  Two iterations can
    conflict only at a location both access and one of them writes, so
    only such pairs are tested. *)
let races (info : Blocks.t) (events : event list) : race list =
  let arr = Array.of_list events in
  (* Every access as (location, iteration, writes), grouped by location. *)
  let accesses =
    Array.to_list arr
    |> List.mapi (fun i e ->
           List.map (fun l -> (l, i, false)) e.ev_reads
           @ List.map (fun l -> (l, i, true)) e.ev_writes)
    |> List.concat |> List.sort compare
  in
  (* [later.(i)]: the iterations after [i] that conflict with it somewhere. *)
  let later = Array.make (Array.length arr) [] in
  let rec pair_up = function
    | [] -> ()
    | (l, _, _) :: _ as accesses ->
      let rec span here = function
        | (l', i, w) :: rest when l' = l -> span ((i, w) :: here) rest
        | rest -> (here, rest)
      in
      let here, rest = span [] accesses in
      List.iter
        (fun (i, wi) ->
          List.iter
            (fun (j, wj) ->
              if i < j && (wi || wj) then later.(i) <- j :: later.(i))
            here)
        here;
      pair_up rest
  in
  pair_up accesses;
  List.concat
    (List.mapi
       (fun i e1 ->
         List.filter_map
           (fun j ->
             let e2 = arr.(j) in
             if unordered info e1 e2 then
               match conflicting e1 e2 with
               | [] -> None
               | l :: _ -> Some { race_e1 = e1; race_e2 = e2; race_loc = l }
             else None)
           (List.sort_uniq Int.compare later.(i)))
       events)

(** Run two programs on copies of the same heap and compare final heaps and
    [Main]'s returned vector. *)
let equivalent_on (p1 : Blocks.t) (p2 : Blocks.t) (heap : Heap.tree)
    (args : int list) : bool =
  let h1 = Heap.copy heap and h2 = Heap.copy heap in
  let r1 = run p1 h1 args and r2 = run p2 h2 args in
  r1.returns = r2.returns && Heap.equal h1 h2
