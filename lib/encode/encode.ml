(** The MSO encoding of Section 4.

    A {e configuration} (the stack-based abstraction of Section 3) is
    represented by monadic second-order labels on the heap tree:

    - for each code block [s], a label [L_s] with [L_s(u)] meaning a record
      [(s, u, ...)] occurs in the configuration;
    - for each {e arithmetic} branch condition [c], a label [C_c] with
      [C_c(u)] meaning the weakest precondition of [c] holds in the record
      at [u].  Nil conditions are structural facts of the tree and are
      encoded directly with [isNil], which subsumes the paper's treatment
      of the [C] labels for nil tests;
    - the match relations [K_{s,t}] are likewise structural (the callee
      node is the caller-frame node extended by the call's pointer path)
      and are inlined into [PathCond].

    On top of [Configuration] the module builds the predicates [Next],
    [Prev], [Consistent], [Ordered], [Parallel] and [Dependence], the
    environment of every query, and the whole [DataRace⟦P⟧] formula that
    [retreet mona] exports.  {!Analysis} assembles the top-level queries
    [DataRace⟦P⟧] (Theorem 2) and [Conflict⟦P,P'⟧] (Theorem 3) from these
    parts, one formula per block pair and divergence case, and decides
    them.

    A query relates two configurations, numbered 1 and 2 ([ns.cfg]); the
    current record of configuration [k] runs on the first-order variable
    [xk], whatever the namespace's program copy.  Encode alone spells
    these names, so its builders take block ids only.

    Refinement over the paper's presentation: dependence is
    location-sensitive.  Field accesses conflict only when they reach the
    same node {e and} the same field; local-variable accesses conflict only
    within the same frame (same creating call block and node), and a
    [return] is modelled as a write to the receiving variables of the
    caller's frame.  This is strictly more precise than node-granularity
    conflicts and remains sound. *)

(** A label namespace: which program copy ([tag]) and which of the two
    configurations of a query ([cfg]) the labels belong to. *)
type ns = { tag : string; cfg : int }

let main_id = -1
(** Pseudo block id for the paper's [main] record. *)

(* The node of configuration [cfg]'s current record. *)
let node cfg = Printf.sprintf "x%d" cfg

(* What a memoized formula is built from: the arguments of one call. *)
type formula_key =
  | Configuration of ns * int
  | Conflict of ns * ns * int * int
  | Dependence of ns * ns * int * int

type cases_key = Blocks.order * ns * ns * int * int

type t = {
  info : Blocks.t;
  sym : Symexec.t;
  rw : (int * Rw.access) list;  (** per non-call block *)
  arith_conds : int list;  (** condition ids with arithmetic conditions *)
  consistent : (string * (int * bool) list list) list;
      (** per function: all consistent truth assignments to its arithmetic
          conditions (the paper's ConsistentCondSet) *)
  reaches : (string * string list) list;
      (** per function [f]: every [g] with [Blocks.func_reaches info f g] *)
  field_sensitive : bool;
      (** [false] = the paper's node-granularity dependence: any two
          accesses to the same node conflict, regardless of field *)
  prune : bool;
      (** [false] = no call-graph reachability pruning (ablation) *)
  formulas : (formula_key, Mso.formula) Hashtbl.t;
      (** the configurations, conflicts and dependences built so far *)
  cases : (cases_key, Mso.formula list) Hashtbl.t;
      (** the divergence cases built so far *)
}

(** Build the encoder state.
    @param field_sensitive match accesses by field as well as node
           (default [true]; [false] reproduces the paper's node-level
           granularity)
    @param prune drop call labels that cannot reach the current record
           (default [true]; [false] for ablation benchmarks) *)
let make ?(field_sensitive = true) ?(prune = true) (info : Blocks.t) : t =
  let sym = Symexec.analyze info in
  let rw = List.map (fun id -> (id, Rw.of_block info id)) (Blocks.all_noncalls info) in
  let arith_conds =
    Array.to_list info.conds
    |> List.filter_map (fun (c : Blocks.cond_info) ->
           match Symexec.cond_nil sym c.cid with
           | Some _ -> None
           | None -> Some c.cid)
  in
  (* ConsistentCondSet: for every function, enumerate the truth assignments
     to its arithmetic conditions whose transported weakest preconditions
     are jointly satisfiable. *)
  let consistent =
    List.map
      (fun (f : Ast.func) ->
        let conds =
          Blocks.conds_of_func info f.fname
          |> List.filter (fun c -> List.mem c arith_conds)
        in
        let rec enumerate = function
          | [] -> [ [] ]
          | c :: rest ->
            let tails = enumerate rest in
            List.concat_map
              (fun tail -> [ (c, true) :: tail; (c, false) :: tail ])
              tails
        in
        let assignments =
          List.filter
            (fun asg ->
              Engine.tick ();
              let atoms =
                List.filter_map
                  (fun (c, pol) -> Symexec.cond_atom sym c ~polarity:pol)
                  asg
              in
              Lia.sat atoms)
            (enumerate conds)
        in
        (f.fname, assignments))
      info.prog.funcs
  in
  let funcs = List.map (fun (f : Ast.func) -> f.fname) info.prog.funcs in
  let reaches =
    List.map
      (fun f -> (f, List.filter (Blocks.func_reaches info f) funcs))
      funcs
  in
  { info; sym; rw; arith_conds; consistent; reaches; field_sensitive; prune;
    formulas = Hashtbl.create 64; cases = Hashtbl.create 64 }

let consistent t fname = List.assoc fname t.consistent

(* The formula [build] returns, built once per key.  A query asks for the
   same configurations, conflicts and divergence cases once per block pair
   and image tuple; a repeated call gets the very formula the first one
   built, so the compile cache confirms its hit by physical equality.
   Builds are pure and tick no step, so sharing them changes no compile,
   node or step; an entry is added only once its build has returned.  The
   encoder belongs to one query, so the tables are never shared between
   domains. *)
let memo tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some f -> f
  | None ->
    let f = build () in
    Hashtbl.add tbl key f;
    f

(* Call-graph reachability, read from the table built by [make]: in a
   valid configuration with current block [q], every labeled call chain
   terminates at the current record, so only calls that reach [func q] can
   carry a record; the encoder uses this to force all other labels empty
   and to prune divergence continuations. *)
let func_reaches t f g = List.mem g (List.assoc f t.reaches)

(** Can call block [s] (or [main]) create a frame whose chain reaches a
    record of block [q]? *)
let call_reaches_block t s q =
  t.prune = false
  ||
  let callee =
    if s = main_id then "Main"
    else
      match (Blocks.block t.info s).block with
      | Ast.Call c -> c.callee
      | Ast.Straight _ -> assert false
  in
  func_reaches t callee (Blocks.block t.info q).bfunc

let access_of t q =
  match List.assoc_opt q t.rw with
  | Some a -> a
  | None -> invalid_arg "Encode.access_of: not a non-call block"

(* ------------------------------------------------------------------ *)
(* Label variables                                                     *)

let block_var t ns id =
  if id = main_id then Printf.sprintf "L%s%d_main" ns.tag ns.cfg
  else Printf.sprintf "L%s%d_%s" ns.tag ns.cfg (Blocks.block t.info id).label

let cond_var _t ns cid = Printf.sprintf "C%s%d_c%d" ns.tag ns.cfg cid

(** All second-order label variables of one namespace, in a stable order.

    Only {e call} blocks (and [main]) get labels: in a configuration every
    non-call label is either empty or the singleton current record, so the
    current block's node is passed around explicitly instead of being a
    track.  This halves the alphabet of every query automaton. *)
let labels t ns : string list =
  (block_var t ns main_id
  :: List.map (block_var t ns) (Blocks.all_calls t.info))
  @ List.map (cond_var t ns) t.arith_conds

(* The environment for a set of namespaces.  The label families are
   {e interleaved} (L1_b, L2_b, L1'_b, L2'_b, ...) rather than
   concatenated: the agreement guards [∧ (L1_b ⇔ L2_b)] of [Consistent]
   are linear-size BDDs under this ordering and exponential under a
   blocked one. *)
let label_env t nss : Mso.env =
  match nss with
  | [] -> []
  | _ ->
    let columns = List.map (labels t) nss in
    let rec interleave cols =
      if List.for_all (( = ) []) cols then []
      else
        List.filter_map
          (function [] -> None | v :: _ -> Some (v, Mso.SO))
          cols
        @ interleave (List.map (function [] -> [] | _ :: r -> r) cols)
    in
    interleave columns

(** The environment of a query: the two current nodes, then the labels of
    each encoder's namespaces, interleaved per encoder. *)
let query_env groups : Mso.env =
  (node 1, Mso.FO) :: (node 2, Mso.FO)
  :: List.concat_map (fun (t, nss) -> label_env t nss) groups

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)

(* Bound-variable names are derived from the remaining depth rather
   than globally fresh.  The compiler's subformula cache does not depend
   on it (its keys number bound variables by binder), but subformulas
   built twice come out structurally equal, so a cache hit is confirmed
   by one structural comparison.  Shadowing is safe because no
   subformula refers to two homonymous binders at once. *)

(** [path_rel u pi v]: v is the node reached from [u] along pointer path
    [pi]. *)
let rec path_rel u (pi : Ast.dir list) v : Mso.formula =
  match pi with
  | [] -> Mso.mk (Mso.EqPos (u, v))
  | [ Ast.L ] -> Mso.mk (Mso.LeftOf (u, v))
  | [ Ast.R ] -> Mso.mk (Mso.RightOf (u, v))
  | d :: rest ->
    let w = Printf.sprintf "w%d" (List.length rest) in
    let step =
      Mso.mk
        (match d with Ast.L -> Mso.LeftOf (u, w) | Ast.R -> Mso.RightOf (u, w))
    in
    Mso.mk (Mso.Exists1 (w, Mso.and_l [ step; path_rel w rest v ]))

(** The node at [u.pi] exists and is (or is not) nil. *)
let nil_at u (pi : Ast.dir list) ~(polarity : bool) : Mso.formula =
  match pi with
  | [] ->
    let nil = Mso.mk (Mso.IsNil u) in
    if polarity then nil else Mso.not_ nil
  | _ ->
    let w = "wn" in
    let nil = Mso.mk (Mso.IsNil w) in
    let tail = if polarity then nil else Mso.not_ nil in
    Mso.mk (Mso.Exists1 (w, Mso.and_l [ path_rel u pi w; tail ]))

(* ------------------------------------------------------------------ *)
(* Path conditions                                                     *)

(** One guard [(cid, polarity)] of a block, as a formula about the frame
    node [u]. *)
let guard_formula t ns u (cid, pol) : Mso.formula =
  match Symexec.cond_nil t.sym cid with
  | Some pi -> nil_at u pi ~polarity:pol
  | None ->
    let c = Mso.mk (Mso.Mem (u, cond_var t ns cid)) in
    if pol then c else Mso.not_ c

(** The structural part of [Match]: where block [q] of the frame at [u]
    places the next record. *)
let match_rel t u q v : Mso.formula =
  match (Blocks.block t.info q).block with
  | Ast.Call c -> path_rel u c.target v
  | Ast.Straight _ -> Mso.mk (Mso.EqPos (u, v))

(** [PathCond_{s,q}(u, v)] (independent of [s]): the record of block [q]
    at [v] is reachable from its frame record at [u]. *)
let path_cond t ns q (u, v) : Mso.formula =
  Mso.and_l
    (match_rel t u q v
    :: List.map (guard_formula t ns u) (Blocks.block t.info q).guards)

(** [Next(L, C, u, s-frame, t)]: some record of [t] is placed correctly
    under the frame at [u].  [current] identifies the configuration's
    current record [(q0, x)]: a non-call block [t] has a record exactly
    when it is the current block, at the current node. *)
let next_formula t ns ~current u q : Mso.formula =
  if Blocks.is_call t.info q then
    let v = "v" in
    Mso.mk
      (Mso.Exists1
         ( v,
           Mso.and_l
             [ Mso.mk (Mso.Mem (v, block_var t ns q)); path_cond t ns q (u, v) ]
         ))
  else
    match current with
    | Some (q0, x) when q0 = q -> path_cond t ns q (u, x)
    | _ -> Mso.false_

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

(** Call blocks [s] with [s / q], including [main] when appropriate. *)
let frame_creators t q =
  let cs = Blocks.callers_of t.info q in
  if (Blocks.block t.info q).bfunc = "Main" then main_id :: cs else cs

let all_call_ids t = main_id :: Blocks.all_calls t.info

(** [Configuration(L, C, q, x)]: the labels of namespace [ns] describe a
    valid (abstracted) configuration whose current record runs non-call
    block [q] on the namespace's current node [x]. *)
let configuration t ns ~q : Mso.formula =
  memo t.formulas (Configuration (ns, q)) @@ fun () ->
  let u = "u" and x = node ns.cfg in
  let current = Some (q, x) in
  (* Only calls whose chains can reach the current record may be labeled:
     every call record needs a successor and the only terminating record is
     the current one.  All other labels are forced empty, which keeps the
     automata small. *)
  let relevant, irrelevant =
    List.partition (fun s -> call_reaches_block t s q) (all_call_ids t)
  in
  let empties =
    Mso.and_l
      (List.map (fun s -> Mso.mk (Mso.EmptySet (block_var t ns s))) irrelevant)
  in
  let main_at_root =
    (* L(main, root) and nowhere else *)
    Mso.mk
      (Mso.Forall1
         ( u,
           Mso.iff
             (Mso.mk (Mso.Mem (u, block_var t ns main_id)))
             (Mso.mk (Mso.Root u)) ))
  in
  let successor =
    (* every call record has exactly one successor it reaches *)
    let per_call s =
      (* continuations that could never lead to the current record have
         empty labels; drop them statically *)
      let ts =
        List.filter
          (fun tb ->
            if Blocks.is_call t.info tb then call_reaches_block t tb q
            else tb = q)
          (Blocks.callee_blocks t.info s)
      in
      let one_of =
        Mso.or_l
          (List.map
             (fun tb ->
               Mso.and_l
                 (next_formula t ns ~current u tb
                 :: List.filter_map
                      (fun tb' ->
                        if tb' = tb then None
                        else
                          let f = Mso.not_ (next_formula t ns ~current u tb') in
                          match f.Mso.node with Mso.True -> None | _ -> Some f)
                      ts))
             ts)
      in
      Mso.imp (Mso.mk (Mso.Mem (u, block_var t ns s))) one_of
    in
    (* one quantifier per call block: ∀ distributes over ∧, and small
       quantified bodies keep the intermediate automata small *)
    Mso.and_l
      (List.map (fun s -> Mso.mk (Mso.Forall1 (u, per_call s))) relevant)
  in
  let predecessor =
    (* every record has a unique reachable predecessor; for the (only)
       non-call record this is stated directly at the current node *)
    let uniquely_from tb node creators s =
      let v = "pv" in
      let from s' =
        Mso.mk
          (Mso.Exists1
             ( v,
               Mso.and_l
                 [
                   Mso.mk (Mso.Mem (v, block_var t ns s'));
                   path_cond t ns tb (v, node);
                 ] ))
      in
      Mso.and_l
        (from s
        :: List.filter_map
             (fun s' -> if s' = s then None else Some (Mso.not_ (from s')))
             creators)
    in
    let relevant_creators b =
      List.filter (fun s -> s = main_id || List.mem s relevant)
        (frame_creators t b)
    in
    let per_call_block tb =
      let creators = relevant_creators tb in
      Mso.imp
        (Mso.mk (Mso.Mem (u, block_var t ns tb)))
        (Mso.or_l (List.map (uniquely_from tb u creators) creators))
    in
    let current_prev =
      let creators = relevant_creators q in
      Mso.or_l (List.map (uniquely_from q x creators) creators)
    in
    Mso.and_l
      (current_prev
      :: List.filter_map
           (fun tb ->
             if call_reaches_block t tb q then
               Some (Mso.mk (Mso.Forall1 (u, per_call_block tb)))
             else None)
           (Blocks.all_calls t.info))
  in
  let cond_consistency =
    (* per function, the arithmetic condition labels at each node form a
       consistent truth assignment *)
    let per_func (fname, assignments) =
      let conds =
        Blocks.conds_of_func t.info fname
        |> List.filter (fun c -> List.mem c t.arith_conds)
      in
      if conds = [] then Mso.true_
      else
        Mso.or_l
          (List.map
             (fun asg ->
               Mso.and_l
                 (List.map
                    (fun (c, pol) ->
                      let m = Mso.mk (Mso.Mem (u, cond_var t ns c)) in
                      if pol then m else Mso.not_ m)
                    asg))
             assignments)
    in
    Mso.and_l
      (List.filter_map
         (fun fc ->
           let f = per_func fc in
           match f.Mso.node with
           | Mso.True -> None
           | _ -> Some (Mso.mk (Mso.Forall1 (u, f))))
         t.consistent)
  in
  Mso.and_l [ empties; main_at_root; successor; predecessor; cond_consistency ]

(* ------------------------------------------------------------------ *)
(* Schedules: Consistent, Ordered, Parallel (Figure 5)                  *)

(* One divergence group of Figure 5's disjunction, for call block [s]:
   both configurations hold a record of [s] at [z] and continue to blocks
   [t1], [t2] of the function [s] calls, with [rel t1 t2].  The (t1, t2)
   choices form one nested disjunction under the shared record
   constraints, so the number of big automata grows with the number of
   call blocks, not of block pairs.  [divergence_cases] adds the agreement
   above [z] and the quantifier.  With [calls_only], only call/call
   continuations count; such a group depends only on the functions
   [target1] and [target2], so every block pair with those functions
   shares it. *)
let divergence_group t ns1 ns2 ~current1 ~current2 ~target1 ~target2
    ~calls_only rel s : Mso.formula =
  let z = "z" in
  (* a continuation is viable only if its chain can lead to that
     configuration's current record (whose function is the target) *)
  let call_reaches_func tb fname =
    match (Blocks.block t.info tb).block with
    | Ast.Call c -> func_reaches t c.callee fname
    | Ast.Straight _ -> false
  in
  let viable current target tb =
    if Blocks.is_call t.info tb then call_reaches_func tb target
    else (not calls_only)
         && match current with Some (q, _) -> tb = q | None -> false
  in
  let ts = Blocks.callee_blocks t.info s in
  let continuations =
    Mso.or_l
      (List.map
         (fun t1 ->
           if not (viable current1 target1 t1) then Mso.false_
           else begin
             let t2s =
               List.filter
                 (fun t2 ->
                   t1 <> t2
                   && Blocks.order t.info t1 t2 = rel
                   && viable current2 target2 t2
                   (* the call/call combinations live in the shared group *)
                   && not
                        (calls_only = false
                        && Blocks.is_call t.info t1
                        && Blocks.is_call t.info t2))
                 ts
             in
             Mso.and_l
               [
                 next_formula t ns1 ~current:current1 z t1;
                 Mso.or_l
                   (List.map (next_formula t ns2 ~current:current2 z) t2s);
               ]
           end)
         ts)
  in
  match continuations.Mso.node with
  | Mso.False -> continuations
  | _ ->
    Mso.and_l
      [
        Mso.mk (Mso.Mem (z, block_var t ns1 s));
        Mso.mk (Mso.Mem (z, block_var t ns2 s));
        continuations;
      ]

(** All triples [(s, t1, t2)] with [s / t1], [s / t2] and the given
    relation between [t1] and [t2]. *)
let divergence_triples t (rel : Blocks.order) =
  List.concat_map
    (fun s ->
      let ts = Blocks.callee_blocks t.info s in
      List.concat_map
        (fun t1 ->
          List.filter_map
            (fun t2 ->
              if t1 <> t2 && Blocks.order t.info t1 t2 = rel then
                Some (s, t1, t2)
              else None)
            ts)
        ts)
    (all_call_ids t)
  |> List.sort_uniq compare

(* Divergence disjunctions are grouped into a pair-independent part (both
   continuations are calls) and a pair-specific part; the former is an
   identical subformula across all block-pair queries, so its automaton is
   compiled once.  The raw [Or] constructor is used to prevent the smart
   constructor from flattening the groups away. *)
let divergence_cases t ns1 ns2 ~q1 ~q2 rel : Mso.formula list =
  memo t.cases (rel, ns1, ns2, q1, q2) @@ fun () ->
  let z = "z" in
  let current1 = Some (q1, node ns1.cfg)
  and current2 = Some (q2, node ns2.cfg) in
  let target1 = (Blocks.block t.info q1).bfunc
  and target2 = (Blocks.block t.info q2).bfunc in
  (* The call/call continuations depend only on the current blocks'
     functions, so those disjuncts are shared across all block-pair
     queries with the same function pair. *)
  let shared =
    List.map
      (divergence_group t ns1 ns2 ~current1:None ~current2:None ~target1
         ~target2 ~calls_only:true rel)
      (all_call_ids t)
  in
  let specific =
    List.map
      (divergence_group t ns1 ns2 ~current1 ~current2 ~target1 ~target2
         ~calls_only:false rel)
      (all_call_ids t)
  in
  let agree =
    (* record labels agree strictly above the diverging node; condition
       labels also agree at it (the divergence is reached "at the same
       time") *)
    let strict =
      List.map
        (fun b -> (block_var t ns1 b, block_var t ns2 b))
        (all_call_ids t)
    in
    let incl =
      List.map (fun c -> (cond_var t ns1 c, cond_var t ns2 c)) t.arith_conds
    in
    Mso.mk (Mso.AgreeAbove (z, strict, incl))
  in
  (* ∃z distributes over the disjunction down to the per-call groups.
     Keeping each group under its own quantifier is essential: an
     undistributed union must deterministically track, per node, which
     continuation labels of EVERY group are present at the children —
     exponentially many intermediate states for mutually recursive
     clusters (the cycletree modes).  Per-group automata track only their
     own few labels, and the post-projection unions are minimized
     pairwise.  Shared (call/call) groups are also cached across all
     block-pair queries with the same function targets. *)
  let wrap inner =
    match inner.Mso.node with
    | Mso.False -> None
    | _ -> Some (Mso.mk (Mso.Exists1 (z, Mso.mk (Mso.And [ inner; agree ]))))
  in
  List.filter_map wrap shared @ List.filter_map wrap specific

(** The disjuncts of "the configuration of [ns1], at block [q1], is
    scheduled strictly before that of [ns2], at block [q2]": one formula
    per divergence group.  The whole relation is their disjunction, but
    callers solve per disjunct — [sat (X ∧ ∨gs) = ∃g. sat (X ∧ g)] — so
    the (exponentially expensive) union automaton never has to be
    built. *)
let ordered_cases t ns1 ns2 ~q1 ~q2 : Mso.formula list =
  divergence_cases t ns1 ns2 ~q1 ~q2 Blocks.Prec

(** The disjuncts of "the two configurations may occur in either order". *)
let parallel_cases t ns1 ns2 ~q1 ~q2 : Mso.formula list =
  divergence_cases t ns1 ns2 ~q1 ~q2 Blocks.Par

(* ------------------------------------------------------------------ *)
(* Dependence                                                          *)

(* Where the current records of non-call blocks [q1] and [q2] can touch
   one location, at least one writing, whatever the namespaces: each is
   one disjunct of [conflict_access]. *)
type collision =
  | Field of Ast.lexpr * Ast.lexpr
      (** the nodes at these paths from the two current nodes are one
          (and, field-sensitively, so is the field) *)
  | Frame_var of int
      (** both access a variable of one frame, created by call [s] *)
  | Return of bool * int * int
      (** [Return (first, tc, s)]: the return of the first (or second)
          record, into the frame call [tc] created, writes a variable the
          other accesses in the frame [s] created *)
  | Returns of int * int * int
      (** [Returns (t1c, t2c, s)]: both return, through calls [t1c] and
          [t2c], into one variable of the frame [s] created *)

(* The collisions of [q1] and [q2], in the order of their disjuncts. *)
let collisions t q1 q2 : collision list =
  let a1 = access_of t q1 and a2 = access_of t q2 in
  let fields l =
    List.filter_map (function Rw.SField (p, f) -> Some (p, f) | _ -> None) l
  in
  let vars l = List.filter_map (function Rw.SVar v -> Some v | _ -> None) l in
  (* field/field: same node and (unless running at the paper's coarser
     node granularity) the same field *)
  let field_conflicts =
    let collide f1 f2 = (not t.field_sensitive) || f1 = f2 in
    let pairs =
      List.concat_map
        (fun (p1, f1) ->
          List.filter_map
            (fun (p2, f2) -> if collide f1 f2 then Some (p1, p2) else None)
            (fields a2.writes))
        (fields (a1.reads @ a1.writes))
      @ List.concat_map
          (fun (p1, f1) ->
            List.filter_map
              (fun (p2, f2) -> if collide f1 f2 then Some (p1, p2) else None)
              (fields a2.reads))
          (fields a1.writes)
    in
    List.map (fun (p1, p2) -> Field (p1, p2)) (List.sort_uniq compare pairs)
  in
  (* var/var: same variable of the same frame *)
  let var_conflicts =
    let shared =
      List.filter
        (fun v -> List.mem v (vars a2.writes))
        (vars (a1.reads @ a1.writes))
      @ List.filter (fun v -> List.mem v (vars a2.reads)) (vars a1.writes)
    in
    if shared = [] then []
    else
      List.filter_map
        (fun s ->
          if List.mem s (frame_creators t q2) then Some (Frame_var s) else None)
        (frame_creators t q1)
  in
  (* return of q_w writing a variable accessed by q_r *)
  let ret_var ~first q_w q_r (accessed : string list) =
    if not (access_of t q_w).ret_write then []
    else
      List.concat_map
        (fun tc ->
          (* tc created q_w's frame; its lhs variables are written *)
          let c = Blocks.call_of t.info tc in
          if not (List.exists (fun v -> List.mem v accessed) c.lhs) then []
          else
            (* s created the frame that owns those variables; it must also
               be the frame of the reader *)
            List.filter_map
              (fun s ->
                if List.mem s (frame_creators t q_r) then
                  Some (Return (first, tc, s))
                else None)
              (frame_creators t tc))
        (Blocks.callers_of t.info q_w)
  in
  let ret_conflicts =
    ret_var ~first:true q1 q2 (vars (a2.reads @ a2.writes))
    @ ret_var ~first:false q2 q1 (vars (a1.reads @ a1.writes))
  in
  (* return/return: both write the same caller variable *)
  let ret_ret =
    if not (a1.ret_write && a2.ret_write) then []
    else
      List.concat_map
        (fun t1c ->
          List.concat_map
            (fun t2c ->
              let c1 = Blocks.call_of t.info t1c
              and c2 = Blocks.call_of t.info t2c in
              if
                (not (Blocks.same_func t.info t1c t2c))
                || List.for_all (fun v -> not (List.mem v c2.lhs)) c1.lhs
              then []
              else
                List.filter_map
                  (fun s ->
                    if List.mem s (frame_creators t t2c) then
                      Some (Returns (t1c, t2c, s))
                    else None)
                  (frame_creators t t1c))
            (Blocks.callers_of t.info q2))
        (Blocks.callers_of t.info q1)
  in
  field_conflicts @ var_conflicts @ ret_conflicts @ ret_ret

(** Conflicting-access formula between the current records [(q1, x1)] of
    [ns1] and [(q2, x2)] of [ns2]: some location is accessed by both, at
    least one access being a write.  One disjunct per collision. *)
let conflict_access t ns1 ns2 ~q1 ~q2 : Mso.formula =
  memo t.formulas (Conflict (ns1, ns2, q1, q2)) @@ fun () ->
  let x1 = node ns1.cfg and x2 = node ns2.cfg in
  let mem x ns s = Mso.mk (Mso.Mem (x, block_var t ns s)) in
  let disjunct = function
    | Field (p1, p2) ->
      let z = "zc" in
      Mso.mk
        (Mso.Exists1 (z, Mso.and_l [ path_rel x1 p1 z; path_rel x2 p2 z ]))
    | Frame_var s ->
      Mso.and_l [ Mso.mk (Mso.EqPos (x1, x2)); mem x1 ns1 s; mem x2 ns2 s ]
    | Return (first, tc, s) ->
      let (ns_w, x_w), (ns_r, x_r) =
        if first then ((ns1, x1), (ns2, x2)) else ((ns2, x2), (ns1, x1))
      in
      Mso.and_l
        [
          mem x_w ns_w tc;
          mem x_r ns_w s;
          path_cond t ns_w tc (x_r, x_w);
          mem x_r ns_r s;
        ]
    | Returns (t1c, t2c, s) ->
      let z = "zr" in
      Mso.mk
        (Mso.Exists1
           ( z,
             Mso.and_l
               [
                 mem z ns1 s;
                 mem z ns2 s;
                 path_cond t ns1 t1c (z, x1);
                 path_cond t ns2 t2c (z, x2);
                 mem x1 ns1 t1c;
                 mem x2 ns2 t2c;
               ] ))
  in
  Mso.or_l (List.map disjunct (collisions t q1 q2))

(** [Dependence]: both configurations are valid and their current records
    conflict. *)
let dependence t ns1 ns2 ~q1 ~q2 : Mso.formula =
  memo t.formulas (Dependence (ns1, ns2, q1, q2)) @@ fun () ->
  Mso.mk
    (Mso.And
       [
         configuration t ns1 ~q:q1;
         configuration t ns2 ~q:q2;
         conflict_access t ns1 ns2 ~q1 ~q2;
       ])

(** Can the pair possibly conflict at all?  A cheap static prefilter: its
    conflict formula is [False] exactly when it has no collision, so no
    formula is built. *)
let may_conflict t q1 q2 : bool = collisions t q1 q2 <> []

(** The pairs of non-call blocks that may conflict, in block order; with
    [~unordered], each pair once, as [(q1, q2)] with [q1 <= q2]. *)
let conflicting_pairs t ~unordered =
  let noncalls = Blocks.all_noncalls t.info in
  List.concat_map
    (fun q1 ->
      List.filter_map
        (fun q2 ->
          if ((not unordered) || q1 <= q2) && may_conflict t q1 q2 then
            Some (q1, q2)
          else None)
        noncalls)
    noncalls

(** [DataRace⟦P⟧], whole: the disjunction, over the pairs that may
    conflict, of "the two configurations are dependent and may occur in
    either order".  Its environment comes with it. *)
let data_race t : Mso.env * Mso.formula =
  let ns1 = { tag = ""; cfg = 1 } and ns2 = { tag = ""; cfg = 2 } in
  ( query_env [ (t, [ ns1; ns2 ]) ],
    Mso.or_l
      (List.map
         (fun (q1, q2) ->
           Mso.and_l
             [
               dependence t ns1 ns2 ~q1 ~q2;
               Mso.or_l (parallel_cases t ns1 ns2 ~q1 ~q2);
             ])
         (conflicting_pairs t ~unordered:true)) )
