(** Top-level verification queries: data-race freedom (Theorem 2) and
    transformation correctness (Theorem 3), with counterexample decoding
    and concrete replay.

    Every query iterates over pairs of non-call blocks, builds the MSO
    formula of Section 4 via {!Encode}, and decides it with the tree-
    automata solver.  A satisfiable formula yields a witness tree whose
    labels decode into the two conflicting configurations. *)

let src = Logs.Src.create "retreet.analysis" ~doc:"Retreet queries"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Counterexamples                                                     *)

type counterexample = {
  cx_tree : Treeauto.tree;  (** witness heap shape (leaves are nil nodes) *)
  cx_q1 : int;  (** current block of the first configuration *)
  cx_q2 : int;
  cx_model : Mso.model;
}

(** The heap corresponding to a witness tree: internal positions become
    nodes, leaves are the nil positions.  Total on every witness shape,
    including the degenerate ones the solver can produce — a single leaf
    (the empty heap [Nil]) and all-leaf fringes; labels are ignored, so
    no witness tree is rejected. *)
let heap_of_witness (tree : Treeauto.tree) : Heap.tree =
  let rec go = function
    | Treeauto.Leaf _ -> Heap.Nil
    | Treeauto.Node (_, l, r) -> Heap.node (go l) (go r)
  in
  go tree

(** Right inverse of {!heap_of_witness} on shapes: nil positions become
    unlabelled leaves. *)
let witness_of_heap (heap : Heap.tree) : Treeauto.tree =
  let rec go = function
    | Heap.Nil -> Treeauto.Leaf []
    | Heap.Node { Heap.left; right; _ } -> Treeauto.Node ([], go left, go right)
  in
  go heap

let pp_paths ppf = function
  | [] -> Fmt.string ppf "-"
  | ps ->
    Fmt.(list ~sep:(any " ")
           (fun ppf p ->
             if p = [] then Fmt.string ppf "root"
             else List.iter (fun d -> Fmt.string ppf (if d = 0 then "l" else "r")) p))
      ppf ps

let pp_counterexample info ppf (cx : counterexample) =
  let b1 = (Blocks.block info cx.cx_q1).label
  and b2 = (Blocks.block info cx.cx_q2).label in
  Fmt.pf ppf "@[<v>conflicting blocks: %s and %s@,tree: %a@,%a@]" b1 b2
    Treeauto.pp_tree cx.cx_tree
    Fmt.(list ~sep:cut
           (fun ppf (v, paths) -> Fmt.pf ppf "  %s -> %a" v pp_paths paths))
    (List.filter (fun (_, paths) -> paths <> []) cx.cx_model.Mso.assignment)

(* ------------------------------------------------------------------ *)
(* Budgeted pair drivers                                               *)

type progress = {
  reason : Engine.reason;
  pairs_done : int;
  pairs_total : int;
}

let pp_progress ppf { reason; pairs_done; pairs_total } =
  Fmt.pf ppf "%a; %d/%d dependent block pairs discharged" Engine.pp_reason
    reason pairs_done pairs_total

(* The progress of a query that [r] cut short after [pairs_done] of its
   [pairs_total] pairs.  A Wall_clock reason escaping a per-item slice
   reports that slice's elapsed/limit, which is meaningless to the
   caller; it is restated against the whole-query budget, started at
   [t0], before it leaves the query boundary. *)
let progress ~budget ~t0 (r : Engine.reason) pairs_done pairs_total =
  let reason =
    match (r.Engine.resource, budget.Engine.timeout) with
    | Engine.Wall_clock, Some s ->
      {
        r with
        Engine.used = int_of_float ((Engine.now () -. t0) *. 1000.);
        limit = int_of_float (s *. 1000.);
      }
    | _ -> r
  in
  { reason; pairs_done; pairs_total }

(* Escalation driver shared by the race and equivalence queries: attempt
   each work item under an equal slice of the remaining wall-clock budget
   (per-extent caps apply to every slice); collect the items whose slice
   ran out and retry them once with the leftover budget.  The first
   counterexample wins immediately; items discharged in round one stay
   discharged (their compiled subformulas also stay cached, so retries
   resume warm).  A drive cut short reports the progress of its query,
   of whose [total] pairs [ndone] were discharged before the drive. *)
let drive ~budget ~t0 ~deadline ~ndone ~total items solve =
  let round items =
    let n = List.length items in
    let rec go i ndone failed last_reason = function
      | [] -> `Through (ndone, List.rev failed, last_reason)
      | it :: rest -> (
        let slice = Engine.slice budget ~deadline ~over:(n - i) in
        match Engine.with_budget slice (fun () -> solve it) with
        | Ok (Some cx) -> `Hit cx
        | Ok None -> go (i + 1) (ndone + 1) failed last_reason rest
        | Error r ->
          Log.info (fun m -> m "pair deferred: %a" Engine.pp_reason r);
          go (i + 1) ndone (it :: failed) (Some r) rest)
    in
    go 0 0 [] None items
  in
  match round items with
  | `Hit cx -> Ok (Some cx)
  | `Through (_, [], _) -> Ok None
  | `Through (n1, failed, r1) -> (
    match round failed with
    | `Hit cx -> Ok (Some cx)
    | `Through (_, [], _) -> Ok None
    | `Through (n2, _, r2) ->
      let reason =
        match (r2, r1) with
        | Some r, _ | None, Some r -> r
        | None, None -> assert false
      in
      Error (progress ~budget ~t0 reason (ndone + n1 + n2) total))

(* The counterexample of the block pair [(q1, q2)] from the first of
   [cases] that has a model; no case after it is solved. *)
let first_counterexample env (q1, q2) cases =
  List.find_map
    (fun f ->
      Option.map
        (fun (model : Mso.model) ->
          { cx_tree = model.tree; cx_q1 = q1; cx_q2 = q2; cx_model = model })
        (Mso.solve env f))
    cases

(* ------------------------------------------------------------------ *)
(* Data race detection                                                 *)

type race_result =
  | Race_free
  | Race of counterexample
  | Race_unknown of progress

let ns_p1 = { Encode.tag = ""; cfg = 1 }
let ns_p2 = { Encode.tag = ""; cfg = 2 }

(** [DataRace⟦P⟧] (Theorem 2): do two parallel configurations with a data
    dependence exist?  One solver query per pair of conflicting non-call
    blocks (the paper's disjunction over [q1, q2]); the compiled
    subformulas are shared between pairs through the solver cache. *)
let check_data_race ?(on_pair = fun _ _ -> ()) ?field_sensitive ?prune
    ?(budget = Engine.unlimited) (info : Blocks.t) : race_result =
  let t0 = Engine.now () in
  let deadline = Engine.absolute_deadline budget in
  (* encoder construction (ConsistentCondSet enumeration) runs under the
     whole remaining budget; a blow-up there is an Unknown with no pair
     discharged, not a crash *)
  let setup () =
    let enc = Encode.make ?field_sensitive ?prune info in
    if Encode.divergence_triples enc Blocks.Par = [] then None
    else Some (enc, Encode.conflicting_pairs enc ~unordered:true)
  in
  match Engine.with_budget (Engine.slice budget ~deadline ~over:1) setup with
  | Error reason -> Race_unknown (progress ~budget ~t0 reason 0 0)
  | Ok None -> Race_free
  | Ok (Some (enc, pairs)) -> (
    let env = Encode.query_env [ (enc, [ ns_p1; ns_p2 ]) ] in
    let solve_pair (q1, q2) =
      on_pair q1 q2;
      Log.info (fun m ->
          m "data race query for blocks %s, %s" (Blocks.block info q1).label
            (Blocks.block info q2).label);
      (* one query per parallel-divergence case: the case union is never
         materialized (see Encode.parallel_cases); raw [And] keeps each
         element a cached subformula and the configuration products prune
         the state space first.  A pair without a case builds no
         configuration. *)
      first_counterexample env (q1, q2)
        (List.map
           (fun case ->
             Mso.mk
               (Mso.And
                  [
                    Encode.configuration enc ns_p1 ~q:q1;
                    Encode.configuration enc ns_p2 ~q:q2;
                    Encode.conflict_access enc ns_p1 ns_p2 ~q1 ~q2;
                    case;
                  ]))
           (Encode.parallel_cases enc ns_p1 ns_p2 ~q1 ~q2))
    in
    let total = List.length pairs in
    match drive ~budget ~t0 ~deadline ~ndone:0 ~total pairs solve_pair with
    | Ok None -> Race_free
    | Ok (Some cx) -> Race cx
    | Error stopped -> Race_unknown stopped)

(** Replay a race counterexample concretely: build the witness heap and ask
    the dynamic oracle whether an unordered conflicting pair occurs. *)
let replay_race (info : Blocks.t) (cx : counterexample) : bool =
  let heap = heap_of_witness cx.cx_tree in
  (* Only an arity mismatch is expected here (Main may take no Int
     argument); anything else — Out_of_memory, Stack_overflow,
     Assert_failure — must propagate to the engine boundary. *)
  match Interp.run info heap [ 0 ] with
  | exception Interp.Runtime_error _ -> (
    match Interp.run info heap [] with
    | { events; _ } -> Interp.races info events <> []
    | exception Interp.Runtime_error _ -> false)
  | { events; _ } -> Interp.races info events <> []

(* ------------------------------------------------------------------ *)
(* Bisimulation (Definition 3)                                         *)

type block_map = (string * string) list
(** Correspondence from non-call block labels of [P] to labels of [P'].
    Not necessarily injective: a fused block may play several roles. *)

type bisim_result =
  | Bisimilar of (int * int) list  (** the call-block relation R *)
  | Not_bisimilar of string

(* Normalize the symbols of a path-condition atom so that atoms from the
   two programs are comparable: strip function names from parameters and
   fields, and replace ghost block ids by block labels. *)
let normalize_atom (info : Blocks.t) (e : Lia.atom) : Lia.atom =
  Lin.rename
    (fun sym ->
      match String.split_on_char ':' sym with
      | [ "p"; _fn; p ] -> "p:" ^ p
      | [ "f"; _fn; path; fld ] -> Printf.sprintf "f:%s:%s" path fld
      | [ "j"; _fn; x; k ] -> Printf.sprintf "j:%s:%s" x k
      | [ "r"; id; k ] -> (
        match int_of_string_opt id with
        | Some id when id >= 0 && id < Blocks.nblocks info ->
          Printf.sprintf "r:%s:%s" (Blocks.block info id).label k
        | _ -> sym)
      | _ -> sym)
    e

(* The comparable content of PathCond_{·,t}: the structural step, the nil
   guard set, the arithmetic guards as source conditions, and their
   weakest preconditions transported to the frame entry. *)
let path_cond_signature (info : Blocks.t) (sym : Symexec.t) (t : int) =
  let b = Blocks.block info t in
  let step =
    match b.block with
    | Ast.Call c -> Some c.target
    | Ast.Straight _ -> None
  in
  let nils =
    List.filter_map
      (fun (cid, pol) ->
        match Symexec.cond_nil sym cid with
        | Some p -> Some (p, pol)
        | None -> None)
      b.guards
    |> List.sort_uniq compare
  in
  let source_conds =
    List.filter_map
      (fun (cid, pol) ->
        match Symexec.cond_nil sym cid with
        | Some _ -> None
        | None -> Some ((Blocks.cond info cid).cond, pol))
      b.guards
  in
  let atoms =
    List.filter_map
      (fun (cid, pol) ->
        Option.map (normalize_atom info) (Symexec.cond_atom sym cid ~polarity:pol))
      b.guards
  in
  (step, nils, source_conds, atoms)

(* Arithmetic guards are considered equivalent when the transported
   weakest preconditions are LIA-equivalent, or — the abstraction level at
   which the paper pairs conditions — when the source conditions coincide
   syntactically (the same test at the same polarity, even if earlier
   writes give it a different entry-relative meaning; the condition labels
   of the two programs are independent in the Conflict query). *)
let signatures_equivalent (s1, n1, c1, a1) (s2, n2, c2, a2) =
  s1 = s2 && n1 = n2 && (c1 = c2 || Lia.equiv a1 a2)

(** One-directional simulation: every configuration of [pa] ending at
    block [qa] converts to a configuration of [pb] ending at one of the
    blocks [qbs], over the same nodes.

    Stacks descend in lockstep, so the witness is a relation [R] over
    pairs of call blocks that can reach the respective current blocks:
    related calls have equivalent path conditions, every reaching
    continuation of the [pa] side has a related [pb]-side continuation,
    and a continuation under whose frame the chain can end has a partner
    under whose frame it can end too.  [R] is a greatest fixpoint; the
    simulation holds iff [(main, main)] survives.  Target {e sets} matter:
    one fused block may play the roles of several original blocks, each
    covering a different class of configurations.

    (The paper enumerates candidate relations by brute force and checks
    Definition 3's conditions on them; the fixpoint finds the greatest
    candidate directly.) *)
let sim_dir (pa : Blocks.t) (pb : Blocks.t) syma symb (qa : int)
    (qbs : int list) : (int * int) list option =
  let main = -1 in
  let sig_equiv t t' =
    signatures_equivalent
      (path_cond_signature pa syma t)
      (path_cond_signature pb symb t')
  in
  if not (List.exists (sig_equiv qa) qbs) then None
  else begin
    (* is a chain through a frame created by [t] able to reach a record of
       [target]? *)
    let relevant info t target =
      let reaches f =
        Blocks.func_reaches info f (Blocks.block info target).bfunc
      in
      if t = main then reaches "Main"
      else
        match (Blocks.block info t).block with
        | Ast.Call c -> reaches c.Ast.callee
        | Ast.Straight _ -> false
    in
    let relevant_any info t targets =
      List.exists (relevant info t) targets
    in
    let calls_a =
      main :: List.filter (fun t -> relevant pa t qa) (Blocks.all_calls pa)
    in
    let calls_b =
      main
      :: List.filter (fun t -> relevant_any pb t qbs) (Blocks.all_calls pb)
    in
    let pair_ok t t' = (t = main && t' = main)
                       || (t <> main && t' <> main && sig_equiv t t') in
    let initial =
      List.concat_map
        (fun t ->
          List.filter_map
            (fun t' -> if pair_ok t t' then Some (t, t') else None)
            calls_b)
        calls_a
    in
    let step_calls info targets t =
      Blocks.callee_blocks info t
      |> List.filter (fun u ->
             Blocks.is_call info u && relevant_any info u targets)
    in
    let last_a u = List.mem qa (Blocks.callee_blocks pa u) in
    let last_b u' =
      List.exists (fun qb -> List.mem qb (Blocks.callee_blocks pb u')) qbs
    in
    let ok r (t, t') =
      let cs = step_calls pa [ qa ] t and cs' = step_calls pb qbs t' in
      List.for_all
        (fun u ->
          List.exists (fun u' -> List.mem (u, u') r) cs'
          && ((not (last_a u))
             || List.exists
                  (fun u' -> List.mem (u, u') r && last_b u')
                  cs'))
        cs
      && (t <> main
         || (not (List.mem qa (Blocks.callee_blocks pa main)))
         || List.exists
              (fun qb -> List.mem qb (Blocks.callee_blocks pb main))
              qbs)
    in
    let rec prune r =
      let r2 = List.filter (ok r) r in
      if List.length r2 = List.length r then r else prune r2
    in
    let r = prune initial in
    if List.mem (main, main) r then Some r else None
  end

(* The block map as pairs of block ids, without the pairs that name a
   label missing from its program. *)
let map_ids (p : Blocks.t) (p' : Blocks.t) (map : block_map) =
  List.filter_map
    (fun (l, l') ->
      match (Blocks.block_by_label p l, Blocks.block_by_label p' l') with
      | Some b, Some b' -> Some (b.id, b'.id)
      | _ -> None)
    map

(* The blocks [ids] relates [q] to, in map order. *)
let image_of ids q =
  List.filter_map (fun (a, b) -> if a = q then Some b else None) ids

(** Check Definition 3 for a block map: every [P] configuration converts
    to a [P'] configuration (per mapped block, against its image set) and
    conversely (per image, against its preimage set). *)
let check_bisimulation (p : Blocks.t) (p' : Blocks.t) ~(map : block_map) :
    bisim_result =
  let sym = Symexec.analyze p and sym' = Symexec.analyze p' in
  let ids = map_ids p p' map in
  if List.length ids <> List.length map then
    Not_bisimilar "block map mentions unknown labels"
  else begin
    let sources = List.sort_uniq compare (List.map fst ids) in
    let images = List.sort_uniq compare (List.map snd ids) in
    let preimage_of = image_of (List.map (fun (a, b) -> (b, a)) ids) in
    let relation = ref [] in
    let forward_failure =
      List.find_opt
        (fun q ->
          match sim_dir p p' sym sym' q (image_of ids q) with
          | Some r ->
            relation := r @ !relation;
            false
          | None -> true)
        sources
    in
    match forward_failure with
    | Some q ->
      Not_bisimilar
        (Printf.sprintf "configurations ending at %s have no counterpart"
           (Blocks.block p q).label)
    | None -> (
      let backward_failure =
        List.find_opt
          (fun q' -> sim_dir p' p sym' sym q' (preimage_of q') = None)
          images
      in
      match backward_failure with
      | Some q' ->
        Not_bisimilar
          (Printf.sprintf
             "configurations ending at %s (transformed program) have no \
              counterpart"
             (Blocks.block p' q').label)
      | None -> Bisimilar (List.sort_uniq compare !relation))
  end

(* ------------------------------------------------------------------ *)
(* Equivalence (Theorem 3)                                             *)

type equiv_result =
  | Equivalent of { relation : (int * int) list }
  | Not_equivalent of counterexample  (** a dependence is reordered *)
  | Bisimulation_failed of string
  | Equiv_unknown of progress

let ns_q1 = { Encode.tag = "'"; cfg = 1 }
let ns_q2 = { Encode.tag = "'"; cfg = 2 }

(** [Conflict⟦P,P'⟧]: both programs bisimulate and no pair of dependent
    configurations is scheduled in opposite orders.  [map] aligns the
    non-call blocks of the two programs. *)
let check_equivalence ?(on_pair = fun _ _ -> ()) ?field_sensitive ?prune
    ?(budget = Engine.unlimited) (p : Blocks.t) (p' : Blocks.t)
    ~(map : block_map) : equiv_result =
  let t0 = Engine.now () in
  let deadline = Engine.absolute_deadline budget in
  let whole () = Engine.slice budget ~deadline ~over:1 in
  let cut reason = Equiv_unknown (progress ~budget ~t0 reason 0 0) in
  match Engine.with_budget (whole ()) (fun () -> check_bisimulation p p' ~map) with
  | Error reason -> cut reason
  | Ok (Not_bisimilar why) -> Bisimulation_failed why
  | Ok (Bisimilar relation) -> (
    let setup () =
      let enc = Encode.make ?field_sensitive ?prune p
      and enc' = Encode.make ?field_sensitive ?prune p' in
      (enc, enc')
    in
    match Engine.with_budget (whole ()) setup with
    | Error reason -> cut reason
    | Ok (enc, enc') -> (
      let images = image_of (map_ids p p' map) in
      let side_p = (enc, [ ns_p1; ns_p2 ])
      and side_p' = (enc', [ ns_q1; ns_q2 ]) in
      (* One query per dependent block pair, over both programs' label
         families at once (they share only the tree and the current
         nodes). *)
      let flat_env = Encode.query_env [ side_p; side_p' ] in
      (* the dependence part alone, per program side — a cheap necessary
         condition used to filter pairs before compiling the (expensive)
         schedule constraints.  The encoder's memo returns one physical
         formula per (side, q1, q2). *)
      let env_p = Encode.query_env [ side_p ]
      and env_p' = Encode.query_env [ side_p' ] in
      let dep_p q1 q2 = Encode.dependence enc ns_p1 ns_p2 ~q1 ~q2
      and dep_p' q1 q2 = Encode.dependence enc' ns_q1 ns_q2 ~q1 ~q2 in
      let flat_cases q1 q2 q1' q2' =
        (* one query per pair of ordered-divergence cases; each dependence
           conjunct is the very formula the prefilter already compiled, so
           its automaton comes from the cache, whose key comparison stops
           at the shared formula *)
        let cases_p = Encode.ordered_cases enc ns_p1 ns_p2 ~q1 ~q2 in
        let cases_p' = Encode.ordered_cases enc' ns_q2 ns_q1 ~q1:q2' ~q2:q1' in
        (* group as (depP ∧ caseP) ∧ (depP' ∧ caseP'): each grouped side is
           one cached automaton, so the cross product of cases costs one
           intersection per combination *)
        List.concat_map
          (fun cp ->
            List.map
              (fun cp' ->
                Mso.mk
                  (Mso.And
                     [
                       Mso.mk (Mso.And [ dep_p q1 q2; cp ]);
                       Mso.mk (Mso.And [ dep_p' q1' q2'; cp' ]);
                     ]))
              cases_p')
          cases_p
      in
      let pairs = Encode.conflicting_pairs enc ~unordered:false in
      let pairs_total = List.length pairs in
      (* Escalation phase 1 — the cheap dependence prefilter: a pair whose
         image tuples never conflict statically, or whose P-side dependence
         is UNSAT, needs no schedule query at all.  Pairs whose prefilter
         itself runs out of budget fall through to the full phase, where
         the retry round gives them a second chance. *)
      let classify (q1, q2) =
        let tuple_conflicts =
          List.exists
            (fun q1' ->
              List.exists
                (fun q2' -> Encode.may_conflict enc' q1' q2')
                (images q2))
            (images q1)
        in
        if not tuple_conflicts then `Cheap
        else if not (Mso.satisfiable env_p (dep_p q1 q2)) then `Cheap
        else `Work
      in
      (* each surviving pair, with whether its P-side dependence is
         already known satisfiable (not so if its prefilter ran out) *)
      let _, ncheap, work =
        List.fold_left
          (fun (i, ncheap, work) pair ->
            let slice =
              Engine.slice budget ~deadline ~over:(pairs_total - i)
            in
            match Engine.with_budget slice (fun () -> classify pair) with
            | Ok `Cheap -> (i + 1, ncheap + 1, work)
            | Ok `Work -> (i + 1, ncheap, (pair, true) :: work)
            | Error _ -> (i + 1, ncheap, (pair, false) :: work))
          (0, 0, []) pairs
      in
      let work = List.rev work in
      (* Each P'-side dependence is decided once per query, on the first
         pair that needs it; a decision cut by the budget is not kept. *)
      let decided_p' = Hashtbl.create 16 in
      let dep_sat_p' q1' q2' =
        match Hashtbl.find_opt decided_p' (q1', q2') with
        | Some sat -> sat
        | None ->
          let sat = Mso.satisfiable env_p' (dep_p' q1' q2') in
          Hashtbl.add decided_p' (q1', q2') sat;
          sat
      in
      (* Escalation phase 2 — full schedule queries per surviving pair,
         over its image tuples.  The P-side dependence is decided at most
         once per pair, and only if the prefilter did not decide it. *)
      let solve_pair ((q1, q2), dep_known) =
        let dep_sat_p =
          if dep_known then lazy true
          else lazy (Mso.satisfiable env_p (dep_p q1 q2))
        in
        List.find_map
          (fun q1' ->
            List.find_map
              (fun q2' ->
                if
                  Encode.may_conflict enc' q1' q2'
                  && Lazy.force dep_sat_p
                  && dep_sat_p' q1' q2'
                then begin
                  on_pair q1 q2;
                  Log.info (fun m ->
                      m "conflict query for blocks %s, %s"
                        (Blocks.block p q1).label (Blocks.block p q2).label);
                  first_counterexample flat_env (q1, q2)
                    (flat_cases q1 q2 q1' q2')
                end
                else None)
              (images q2))
          (images q1)
      in
      match
        drive ~budget ~t0 ~deadline ~ndone:ncheap ~total:pairs_total work
          solve_pair
      with
      | Ok (Some cx) -> Not_equivalent cx
      | Ok None -> Equivalent { relation }
      | Error stopped -> Equiv_unknown stopped))

(** Replay an equivalence counterexample: run both programs on the witness
    heap and compare results.  The minimal witness only localizes the
    reordered dependence — the value difference it causes may need more
    tree around it (or specific field contents) to surface, so the replay
    escalates: the witness heap itself, then complete trees of growing
    height with varied field values.  (The MSO encoding is sound but
    incomplete, so a counterexample may still be spurious; the paper
    inspected counterexamples manually, we replay them concretely.) *)
let replay_equivalence (p : Blocks.t) (p' : Blocks.t)
    (cx : counterexample) : bool =
  let differs heap = not (Interp.equivalent_on p p' heap []) in
  differs (heap_of_witness cx.cx_tree)
  || List.exists differs
       (Heap.probe_trees ~seed:0x5eed ~heights:[ 2; 3; 4 ] ~per_height:4)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render_unknown u = (Fmt.str "UNKNOWN: %a" pp_progress u, 3)

let render_race = function
  | Race_free -> ("data-race-free", 0)
  | Race _ -> ("DATA RACE", 1)
  | Race_unknown u -> render_unknown u

let render_equiv = function
  | Equivalent { relation } ->
    ( Fmt.str "equivalent (bisimulation with %d call pairs)"
        (List.length relation),
      0 )
  | Not_equivalent _ -> ("NOT equivalent", 1)
  | Bisimulation_failed why -> ("bisimulation failed: " ^ why, 1)
  | Equiv_unknown u -> render_unknown u
