(* Verdict self-validation: replay, structural invariants, differential
   oracles.  See validate.mli for the contract. *)

let src = Logs.Src.create "retreet.validate" ~doc:"Verdict self-validation"

module Log = (val Logs.src_log src : Logs.LOG)

type level = Off | Witness | Invariants | Full

let rank = function Off -> 0 | Witness -> 1 | Invariants -> 2 | Full -> 3
let ( >=! ) a b = rank a >= rank b

let level_enum =
  [ ("off", Off); ("witness", Witness); ("invariants", Invariants);
    ("full", Full) ]

let pp_level ppf l =
  Fmt.string ppf
    (fst (List.find (fun (_, l') -> l = l') level_enum))

type status =
  | Passed
  | Failed of string
  | Unchecked of string

type check = { name : string; status : status }

type report = {
  vlevel : level;
  checks : check list;
  query_time : float;
  validation_time : float;
}

let ok r =
  List.for_all (fun c -> match c.status with Failed _ -> false | _ -> true)
    r.checks

let pp_status ppf = function
  | Passed -> Fmt.string ppf "passed"
  | Failed msg -> Fmt.pf ppf "FAILED: %s" msg
  | Unchecked why -> Fmt.pf ppf "unchecked (%s)" why

let pp_report ppf r =
  Fmt.pf ppf "@[<v>validation (%a): %s@,%a@]" pp_level r.vlevel
    (if ok r then "ok" else "FAILED")
    Fmt.(list ~sep:cut
           (fun ppf c -> Fmt.pf ppf "  %-24s %a" c.name pp_status c.status))
    r.checks

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render verdict_line (v, report) =
  let text, code = verdict_line v in
  if ok report then (text, code)
  else (text ^ "  [verdict FAILED self-validation]", 4)

let render_task verdict_line = function
  | Ok validated -> render verdict_line validated
  | Error reason -> (Fmt.str "UNKNOWN: %a" Engine.pp_reason reason, 3)

let severity = function 2 -> 4 | 4 -> 3 | 1 -> 2 | 3 -> 1 | _ -> 0

let worst_code =
  List.fold_left
    (fun worst c -> if severity c > severity worst then c else worst)
    0

(* ------------------------------------------------------------------ *)
(* Structural invariants                                               *)

(* Deep per-automaton scans are quadratic in the state count; above this
   bound only the O(1) shape checks run, which keeps the observer cheap
   on the rare large intermediate automata. *)
let deep_limit = 96

(* Two distinct states with the same acceptance and identical hash-consed
   transition rows are equivalent, so a minimal automaton cannot contain
   them.  One Moore-signature round — sound but deliberately not a full
   re-minimization, and deliberately not the minimizer's signature table:
   a checker sharing that code could not catch a bug in it. *)
module Rows = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )

  (* Rows have at most 2 * deep_limit + 1 entries, all of them hashed. *)
  let hash = Hashtbl.hash_param 256 256
end)

let check_minimal (a : Treeauto.t) =
  let n = a.Treeauto.nstates in
  let seen = Rows.create (2 * n) in
  let bad = ref None in
  for q = 0 to n - 1 do
    if !bad = None then begin
      let key = Array.make ((2 * n) + 1) (Bool.to_int a.Treeauto.accept.(q)) in
      for j = 0 to n - 1 do
        key.((2 * j) + 1) <- Mtbdd.hash a.Treeauto.delta.(q).(j);
        key.((2 * j) + 2) <- Mtbdd.hash a.Treeauto.delta.(j).(q)
      done;
      match Rows.find_opt seen key with
      | Some q' ->
        bad :=
          Some
            (Printf.sprintf "states %d and %d are trivially mergeable" q' q)
      | None -> Rows.add seen key q
    end
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

let check_automaton stage (a : Treeauto.t) =
  let n = a.Treeauto.nstates in
  if n <= 0 then Error "automaton has no states"
  else if Array.length a.Treeauto.accept <> n then
    Error "acceptance vector length differs from the state count"
  else if
    Array.length a.Treeauto.delta <> n
    || Array.exists (fun row -> Array.length row <> n) a.Treeauto.delta
  then Error "transition table is not square"
  else if n > deep_limit then Ok ()
  else begin
    (* One scan over the whole automaton: a cell's terminals already seen
       in an earlier cell were in range there, so the first failing cell
       is the same as with a full scan per cell. *)
    let scan = Mtbdd.terminal_scanner () in
    let in_range m = List.for_all (fun q -> q >= 0 && q < n) (scan m) in
    if not (in_range a.Treeauto.leaf) then
      Error "leaf transition targets an out-of-range state"
    else begin
      let bad = ref None in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if !bad = None && not (in_range a.Treeauto.delta.(i).(j)) then
            bad :=
              Some
                (Printf.sprintf
                   "delta(%d,%d) targets an out-of-range state" i j)
        done
      done;
      match !bad with
      | Some msg -> Error msg
      | None ->
        if stage = "minimize" || stage = "project" then check_minimal a
        else Ok ()
    end
  end

let check_stores () =
  match Bdd.check_integrity () with
  | Error _ as e -> e
  | Ok () -> Mtbdd.check_integrity ()

(* ------------------------------------------------------------------ *)
(* Observer plumbing                                                   *)

(* Violations are recorded, never raised: the observer runs inside the
   query and must not disturb it.  Observer time is accounted to
   validation, not to the query. *)
type obs = {
  mutable automata : int;
  mutable violation : (string * string) option;
  mutable time : float;
}

let with_observer enabled f =
  let o = { automata = 0; violation = None; time = 0. } in
  if not enabled then (f (), o)
  else begin
    Treeauto.set_observer (fun stage a ->
        let t0 = Engine.now () in
        o.automata <- o.automata + 1;
        (if o.violation = None then
           match check_automaton stage a with
           | Ok () -> ()
           | Error msg -> o.violation <- Some (stage, msg)
           | exception _ -> ());
        o.time <- o.time +. (Engine.now () -. t0));
    let r =
      Fun.protect ~finally:Treeauto.clear_observer f
    in
    (r, o)
  end

let invariant_checks o =
  [
    {
      name = "treeauto.invariants";
      status =
        (match o.violation with
        | None ->
          if o.automata = 0 then Unchecked "no automata were constructed"
          else Passed
        | Some (stage, msg) ->
          Failed (Printf.sprintf "after %s: %s" stage msg));
    };
    {
      name = "stores.integrity";
      status =
        (match check_stores () with
        | Ok () -> Passed
        | Error msg -> Failed msg);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Differential oracles                                                *)

(* Run a validator on the budget left over from the query.  Out-of-budget
   (and the fatal conditions with_budget converts) degrade the check to
   Unchecked; any other escape from a validator is itself a failure. *)
let under_leftover ~budget ~deadline name f =
  let status =
    match
      Engine.with_budget (Engine.leftover budget ~deadline) (fun () -> f ())
    with
    | Ok s -> s
    | Error reason -> Unchecked (Fmt.str "%a" Engine.pp_reason reason)
    | exception exn -> Failed ("validator raised " ^ Printexc.to_string exn)
  in
  { name; status }

let main_args (info : Blocks.t) =
  match
    List.find_opt (fun f -> f.Ast.fname = "Main") info.Blocks.prog.Ast.funcs
  with
  | Some f -> List.map (fun _ -> 0) f.Ast.int_params
  | None -> []

let small_heaps () =
  Heap.probe_trees ~seed:0x7e57 ~heights:[ 1; 2; 3 ] ~per_height:3

(* Functions composed in parallel anywhere in the program, as pairs of
   callee names — the granularity the coarse baseline speaks. *)
let parallel_pairs (prog : Ast.prog) =
  let rec calls acc = function
    | Ast.SBlock (_, Ast.Call c) -> c.Ast.callee :: acc
    | Ast.SBlock _ -> acc
    | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
      calls (calls acc a) b
  in
  let pairs = ref [] in
  let rec go = function
    | Ast.SPar (a, b) ->
      List.iter
        (fun f ->
          List.iter (fun g -> pairs := (f, g) :: !pairs) (calls [] b))
        (calls [] a);
      go a;
      go b
    | Ast.SIf (_, a, b) | Ast.SSeq (a, b) ->
      go a;
      go b
    | Ast.SBlock _ -> ()
  in
  List.iter (fun f -> go f.Ast.body) prog.Ast.funcs;
  List.sort_uniq compare !pairs

(* A Race_free proof must survive concrete execution: the dynamic
   dependence oracle sees no race, and all explored schedules agree. *)
let differential_race_free info =
  let args = main_args info in
  let bad = ref None in
  List.iter
    (fun heap ->
      if !bad = None then
        match Interp.run info (Heap.copy heap) args with
        | { Interp.events; _ } ->
          if Interp.races info events <> [] then
            bad := Some "dynamic race observed on a concrete tree"
          else if
            not (Explore.deterministic ~limit:200 info
                   (fun () -> Heap.copy heap) args)
          then bad := Some "schedule exploration found diverging outcomes"
        | exception Interp.Runtime_error _ -> ())
    (small_heaps ());
  match !bad with None -> Passed | Some msg -> Failed msg

(* The coarse baseline over-approximates dependences, so Allowed is a
   proof of independence: a Race verdict on a program whose every
   parallel pair the baseline allows is a contradiction. *)
let baseline_cross_check info =
  match parallel_pairs info.Blocks.prog with
  | [] -> Unchecked "no parallel composition in the program"
  | pairs ->
    if
      List.for_all
        (fun (f, g) ->
          Baseline.can_parallelize info.Blocks.prog f g = Baseline.Allowed)
        pairs
    then
      Failed
        "race reported, but the coarse baseline proves the parallel \
         traversals independent"
    else Passed

let differential_equivalent p p' =
  let args = main_args p in
  if
    List.for_all
      (fun heap -> Interp.equivalent_on p p' heap args)
      (small_heaps ())
  then Passed
  else Failed "programs differ on a concrete tree"

(* ------------------------------------------------------------------ *)
(* Validated queries                                                   *)

(* The skeleton both queries share.  Run [query] under the observer;
   then, unless [level] is [Off], the checks [witness] gives for its
   verdict, the invariant checks from [Invariants] on, and the checks
   [differential] gives from [Full] on, in that order.  Both get [run],
   which runs a named check on the budget left over from the query. *)
let validated ~level ~budget query ~witness ~differential =
  let deadline = Engine.absolute_deadline budget in
  let t0 = Engine.now () in
  let result, obs = with_observer (level >=! Invariants) query in
  let t_query = Engine.now () in
  let run = under_leftover ~budget ~deadline in
  let checks =
    if level = Off then []
    else begin
      let witness_checks = witness run result in
      let invariant = if level >=! Invariants then invariant_checks obs else [] in
      let differential =
        if level >=! Full then differential run result else []
      in
      witness_checks @ invariant @ differential
    end
  in
  ( result,
    {
      vlevel = level;
      checks;
      query_time = t_query -. t0 -. obs.time;
      validation_time = Engine.now () -. t_query +. obs.time;
    } )

let replayed confirmed =
  if confirmed then Passed
  else Failed "counterexample not confirmed by concrete replay"

let check_data_race ?(level = Witness) ?(budget = Engine.unlimited) info =
  validated ~level ~budget
    (fun () -> Analysis.check_data_race ~budget info)
    ~witness:(fun run -> function
      | Analysis.Race cx ->
        [
          run "race.replay" (fun () ->
              replayed (Analysis.replay_race info cx));
        ]
      | Analysis.Race_free | Analysis.Race_unknown _ -> [])
    ~differential:(fun run -> function
      | Analysis.Race_free ->
        [ run "race_free.differential" (fun () -> differential_race_free info) ]
      | Analysis.Race _ ->
        [ run "race.baseline" (fun () -> baseline_cross_check info) ]
      | Analysis.Race_unknown _ ->
        [ { name = "race.differential";
            status = Unchecked "no verdict to validate" } ])

let check_equivalence ?(level = Witness) ?(budget = Engine.unlimited) p p'
    ~map =
  validated ~level ~budget
    (fun () -> Analysis.check_equivalence ~budget p p' ~map)
    ~witness:(fun run -> function
      | Analysis.Not_equivalent cx ->
        [
          run "equiv.replay" (fun () ->
              replayed (Analysis.replay_equivalence p p' cx));
        ]
      | Analysis.Equivalent _ | Analysis.Bisimulation_failed _
      | Analysis.Equiv_unknown _ ->
        [])
    ~differential:(fun run -> function
      | Analysis.Equivalent _ ->
        [ run "equiv.differential" (fun () -> differential_equivalent p p') ]
      | Analysis.Bisimulation_failed _ ->
        [ { name = "equiv.differential";
            status = Unchecked "refutation is syntactic" } ]
      | Analysis.Not_equivalent _ | Analysis.Equiv_unknown _ ->
        [ { name = "equiv.differential";
            status = Unchecked "no positive verdict to validate" } ])
