type var = string

(* What the compiler reads of a node, filled from its children's slots
   the first time it is needed and kept: the free variables in order of
   first occurrence, and a hash of the node's shape in which each free
   variable is numbered by its first occurrence and each bound one by its
   binder.  Both are alpha-invariant, so every node is walked once in its
   life instead of once per compile-cache lookup of each of its
   ancestors.  The slot is a pure function of the node: two domains that
   fill it at once store equal values. *)
type slot = { fv : var array; shape : int }

type node =
  | True
  | False
  | EmptySet of var
  | Sing of var
  | Mem of var * var
  | EqPos of var * var
  | LeftOf of var * var
  | RightOf of var * var
  | Root of var
  | IsNil of var
  | AgreeAbove of var * (var * var) list * (var * var) list
  | Not of formula
  | And of formula list
  | Or of formula list
  | Imp of formula * formula
  | Iff of formula * formula
  | Exists1 of var * formula
  | Forall1 of var * formula

and formula = { node : node; mutable slot : slot }

(* The slot of a node not filled yet, told apart by physical equality. *)
let unfilled = { fv = [||]; shape = 0 }

let mk node =
  Engine.note_formula ();
  { node; slot = unfilled }

let true_ = mk True
let false_ = mk False

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)

let and_l fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
      match f.node with
      | True -> flatten acc rest
      | False -> None
      | And gs -> flatten acc (gs @ rest)
      | _ -> flatten (f :: acc) rest)
  in
  match flatten [] fs with
  | None -> false_
  | Some [] -> true_
  | Some [ f ] -> f
  | Some fs -> mk (And fs)

let or_l fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
      match f.node with
      | False -> flatten acc rest
      | True -> None
      | Or gs -> flatten acc (gs @ rest)
      | _ -> flatten (f :: acc) rest)
  in
  match flatten [] fs with
  | None -> true_
  | Some [] -> false_
  | Some [ f ] -> f
  | Some fs -> mk (Or fs)

let not_ f =
  match f.node with
  | True -> false_
  | False -> true_
  | Not g -> g
  | _ -> mk (Not f)

let rec imp a b =
  match (a.node, b.node) with
  | True, _ -> b
  | False, _ -> true_
  | _, False -> not_ a
  | _, True -> true_
  | _, And bs ->
    (* distribute: a → (b1 ∧ b2) = (a → b1) ∧ (a → b2); subformula caching
       in the compiler makes the duplicated antecedent cheap, and universal
       quantifiers then distribute over the resulting conjunction *)
    and_l (List.map (imp a) bs)
  | _ -> mk (Imp (a, b))

let iff a b =
  match (a.node, b.node) with
  | True, _ -> b
  | _, True -> a
  | False, _ -> not_ b
  | _, False -> not_ a
  | _ -> mk (Iff (a, b))

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)

let mix h x =
  let h = (h lxor x) * 0x3C6EF372FE94F82B in
  h lxor (h lsr 31)

(* The free variables of a node being filled, newest first: [number]
   gives each its index in order of first occurrence. *)
type seen = { mutable vars : var list; mutable count : int }

let number seen v =
  let rec find i = function
    | w :: rest -> if String.equal w v then seen.count - 1 - i else find (i + 1) rest
    | [] ->
      seen.vars <- v :: seen.vars;
      seen.count <- seen.count + 1;
      seen.count - 1
  in
  find 0 seen.vars

let rec slot f =
  if f.slot != unfilled then f.slot
  else begin
    let s = fill f.node in
    f.slot <- s;
    s
  end

(* A node's slot from its children's: a child contributes its shape and,
   for each of its free variables, the index of that variable in the
   node's own order, or -1 for the variable the node binds. *)
and fill node =
  let seen = { vars = []; count = 0 } in
  let var h v = mix h (number seen v) in
  let pairs h ps =
    List.fold_left (fun h (a, b) -> var (var h a) b) (mix h (List.length ps)) ps
  in
  let child ?bound h g =
    let s = slot g in
    Array.fold_left
      (fun h v ->
        match bound with
        | Some x when String.equal x v -> mix h (-1)
        | _ -> var h v)
      (mix h s.shape) s.fv
  in
  let children h gs =
    List.fold_left (fun h g -> child h g) (mix h (List.length gs)) gs
  in
  let shape =
    match node with
    | True -> 1
    | False -> 2
    | EmptySet a -> var 5 a
    | Sing a -> var 6 a
    | Mem (a, b) -> var (var 7 a) b
    | EqPos (a, b) -> var (var 8 a) b
    | LeftOf (a, b) -> var (var 9 a) b
    | RightOf (a, b) -> var (var 10 a) b
    | Root a -> var 11 a
    | IsNil a -> var 12 a
    | AgreeAbove (z, strict, incl) -> pairs (pairs (var 14 z) strict) incl
    | Not g -> child 15 g
    | And gs -> children 16 gs
    | Or gs -> children 17 gs
    | Imp (a, b) -> child (child 18 a) b
    | Iff (a, b) -> child (child 19 a) b
    | Exists1 (x, g) -> child ~bound:x 22 g
    | Forall1 (x, g) -> child ~bound:x 23 g
  in
  { fv = Array.of_list (List.rev seen.vars); shape }

let free_vars f = Array.to_list (slot f).fv

let mentions x f = Array.exists (String.equal x) (slot f).fv

(* ------------------------------------------------------------------ *)
(* Atom automata.

   Each atom is compiled restricted to the assignments under which every
   first-order variable it reads (declared [FO], or bound by [Exists1] or
   [Forall1]) is a singleton: it rejects any other assignment.  So no
   automaton built from atoms tracks a set-valued first-order variable,
   and products of atoms over the same position stay small.  A position
   argument (the element of [Mem], both arguments of [LeftOf] and
   [RightOf], the argument of [Root] and [IsNil], the [z] of
   [AgreeAbove]) is restricted whatever its kind, as the tests' reference
   evaluator ([test/mso_eval.ml]) reads it; a set argument only when its
   variable is first-order.  Each restricted atom is one construction
   ([auto_point], [auto_below]).

   Invariant: on every assignment under which the first-order free
   variables of a subformula are singletons, its automaton accepts
   exactly when the subformula holds; elsewhere an atom rejects and its
   complement accepts.  The quantifiers [Exists1] and [Forall1] range
   over singletons, and [compile] conjoins [Sing] for every declared
   first-order variable, so the automaton [compile] returns accepts
   exactly the models of its formula.  Where every position argument is
   first-order, as in every formula [Encode] builds, that is the
   language the atoms gave when they read each track as a set, so no
   verdict depends on the restriction. *)

let bits2 x y f =
  [
    (Bdd.conj (Bdd.var x) (Bdd.var y), f true true);
    (Bdd.conj (Bdd.var x) (Bdd.nvar y), f true false);
    (Bdd.conj (Bdd.nvar x) (Bdd.var y), f false true);
    (Bdd.top, f false false);
  ]

let bits1 x f = [ (Bdd.var x, f true); (Bdd.top, f false) ]

(* Every position satisfies the per-position guard [g]. *)
let local_all g =
  Treeauto.make ~nstates:2
    ~leaf:[ (g, 0); (Bdd.top, 1) ]
    ~delta:(fun q1 q2 ->
      if q1 = 0 && q2 = 0 then [ (g, 0); (Bdd.top, 1) ] else [ (Bdd.top, 1) ])
    ~accept:(fun q -> q = 0)

(* Exactly one position carries track [i]: states count occurrences 0/1/2+. *)
let auto_sing i =
  Treeauto.make ~nstates:3
    ~leaf:(bits1 i (fun b -> if b then 1 else 0))
    ~delta:(fun q1 q2 ->
      let n = min 2 (q1 + q2) in
      bits1 i (fun b -> if b then min 2 (n + 1) else n))
    ~accept:(fun q -> q = 1)

(* The tracks [xs], each a singleton, all mark one and the same position
   p: p satisfies [leaf] if it is a leaf and [node] if not, each strict
   ancestor of p satisfies [above], and every other position [other].
   States: 0 = p not in the subtree, 1 = p in it, 2 = refuted. *)
let auto_point xs ~leaf ~node ~above ~other =
  let all = Bdd.conj_list (List.map Bdd.var xs) in
  let some = List.fold_left (fun g x -> Bdd.disj g (Bdd.var x)) Bdd.bot xs in
  let at g = [ (Bdd.conj all g, 1); (some, 2); (other, 0); (Bdd.top, 2) ] in
  Treeauto.make ~nstates:3 ~leaf:(at leaf)
    ~delta:(fun q1 q2 ->
      match (q1, q2) with
      | 0, 0 -> at node
      | 1, 0 | 0, 1 -> [ (some, 2); (above, 1); (Bdd.top, 2) ]
      | _ -> [ (Bdd.top, 2) ])
    ~accept:(fun q -> q = 1)

(* Position [y] is the left child of position [x], or with [~left:false]
   the right one.  States: 0 = neither seen, 1 = y seen and x not, 2 =
   relation established, 3 = refuted. *)
let auto_below ~left x y =
  let entry = bits2 x y (fun bx by -> if bx then 3 else if by then 1 else 0) in
  Treeauto.make ~nstates:4 ~leaf:entry
    ~delta:(fun ql qr ->
      match (ql, qr, left) with
      | 0, 0, _ -> entry
      | 1, 0, true | 0, 1, false ->
        bits2 x y (fun bx by -> if bx && not by then 2 else 3)
      | 2, 0, _ | 0, 2, _ ->
        bits2 x y (fun bx by -> if bx || by then 3 else 2)
      | _ -> [ (Bdd.top, 3) ])
    ~accept:(fun q -> q = 2)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

type kind = FO | SO

type env = (var * kind) list

(* The compile cache.

   The automaton of a subformula depends on its variables only through
   the order of their tracks: a free variable reads its track, the bound
   variable at binding depth d reads track [next + d] (above every free
   track), and every kernel compares tracks only by their order.  So a
   subformula is keyed by its canonical form, in which each free variable
   is numbered by the rank of its track and each bound one by its
   binder; neither [next] nor a concrete track is part of the key.  An
   entry keeps one automaton per vector of free-variable tracks.  A new
   vector is served by renaming a stored automaton through the strictly
   increasing map between the two vectors ({!Treeauto.rename}), which
   yields, node for node, the automaton a fresh compile would build.
   The kinds of the free variables, in rank order, are part of the key:
   an atom compiles differently over a first-order variable (restricted
   to singletons) than over a second-order one, so the automaton of one
   must never be renamed onto the other.

   The cache lives in the current solver context: cached automata hold
   diagrams hash-consed in that context, so sharing them across contexts
   (or domains) would break physical equality. *)

(* A subformula with its free variables in track order: [names.(r)] has
   the [r]-th smallest track and [kinds.(r)] is its kind. *)
type key = { hash : int; f : formula; names : var array; kinds : kind array }

(* The canonical number of an occurrence of [v] under the binders [bound]
   (innermost first): -1 - (de Bruijn index) if bound, else its rank. *)
let canonical names bound v =
  let rec free r =
    if String.equal names.(r) v then r else free (r + 1)
  in
  let rec go i = function
    | [] -> free 0
    | b :: rest -> if String.equal b v then -1 - i else go (i + 1) rest
  in
  go 0 bound

(* Equality of canonical forms, decided exactly: a hit never rests on a
   hash.  A node physically shared by both sides (the encoder's memo
   shares most) is equal to itself exactly when each of its free
   variables is numbered alike on both sides; nodes whose shapes differ
   are not alpha-equivalent, so the walk stops there at once.  Both
   formulas were keyed, so every slot below them is filled. *)
let alpha_equal k1 k2 =
  let n1 = k1.names and n2 = k2.names in
  let rec eq b1 b2 f1 f2 =
    let v a c = canonical n1 b1 a = canonical n2 b2 c in
    if f1 == f2 then Array.for_all (fun a -> v a a) (slot f1).fv
    else (slot f1).shape = (slot f2).shape && eq_node b1 b2 v f1.node f2.node
  and eq_node b1 b2 v n1 n2 =
    let pairs = List.equal (fun (a, b) (c, d) -> v a c && v b d) in
    match (n1, n2) with
    | True, True | False, False -> true
    | Mem (a, b), Mem (c, d)
    | EqPos (a, b), EqPos (c, d)
    | LeftOf (a, b), LeftOf (c, d)
    | RightOf (a, b), RightOf (c, d) ->
      v a c && v b d
    | EmptySet a, EmptySet c | Sing a, Sing c | Root a, Root c
    | IsNil a, IsNil c ->
      v a c
    | AgreeAbove (z, s, i), AgreeAbove (z', s', i') ->
      v z z' && pairs s s' && pairs i i'
    | Not g, Not h -> eq b1 b2 g h
    | And gs, And hs | Or gs, Or hs -> List.equal (eq b1 b2) gs hs
    | Imp (a, b), Imp (c, d) | Iff (a, b), Iff (c, d) ->
      eq b1 b2 a c && eq b1 b2 b d
    | Exists1 (x, g), Exists1 (y, h)
    | Forall1 (x, g), Forall1 (y, h) ->
      eq (x :: b1) (y :: b2) g h
    | _ -> false
  in
  Array.length n1 = Array.length n2 && k1.kinds = k2.kinds && eq [] [] k1.f k2.f

module Cache = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 = k1.hash = k2.hash && alpha_equal k1 k2
  let hash k = k.hash
end)

(* The automata of one class, each with the free-variable tracks it was
   built for; [source] was compiled first and is the one renamed. *)
type entry = {
  source : int array * Treeauto.t;
  mutable variants : (int array * Treeauto.t) list;
}

let cache_slot : entry Cache.t Solver_ctx.Slot.slot =
  Solver_ctx.Slot.create (fun () -> Cache.create 4096)

let cache () = Solver_ctx.get_current cache_slot

(* Armed fault campaigns poison pure caches, so compiled automata must not
   outlive an arm/disarm transition. *)
let () = Faults.on_flush (fun () -> Cache.reset (cache ()))

(* The compiler's environment: each variable in scope with its track and
   kind.  The declared variables sit in a hash table, the bound ones in a
   list, innermost first.  The kinds travel with the compile, so compiles
   on two domains never see each other's. *)
type binding = { tr : int; kind : kind }

type tenv = { declared : (var, binding) Hashtbl.t; bound : (var * binding) list }

(* The binding of [v] under [tenv]: its innermost binding is in effect.
   [compile] builds the key of its formula before compiling anything, so
   an undeclared free variable is reported from here. *)
let binding tenv v =
  let rec bound = function
    | (w, b) :: rest -> if String.equal w v then b else bound rest
    | [] -> (
      match Hashtbl.find_opt tenv.declared v with
      | Some b -> b
      | None ->
        invalid_arg
          (Printf.sprintf "Mso.compile: free variable %s undeclared" v))
  in
  bound tenv.bound

let track tenv v = (binding tenv v).tr

(* The key of [f] under [tenv], and the tracks of its free variables in
   ascending order, read off [f]'s slot.  The hash mixes the slot's shape
   with the order of the free variables' tracks and their kinds in that
   order, all alpha-invariant. *)
let key_of tenv f =
  let { fv; shape } = slot f in
  let free = Array.map (binding tenv) fv in
  let by_rank = Array.init (Array.length fv) Fun.id in
  Array.sort (fun k k' -> Int.compare free.(k).tr free.(k').tr) by_rank;
  let h = Array.fold_left mix shape by_rank in
  let kinds = Array.map (fun k -> free.(k).kind) by_rank in
  let h = Array.fold_left (fun h k -> mix h (if k = FO then 1 else 2)) h kinds in
  ( { hash = Hashtbl.hash h; f; names = Array.map (fun k -> fv.(k)) by_rank;
      kinds },
    Array.map (fun k -> free.(k).tr) by_rank )

(* Under an armed [mso.projection_shift] a compiled automaton can read a
   track outside its free variables; such an automaton is not renamed. *)
exception Foreign_track

(* The map from the tracks [src] to [dst], both ascending. *)
let track_map src dst v =
  let rec find i =
    if i = Array.length src then raise Foreign_track
    else if src.(i) = v then dst.(i)
    else find (i + 1)
  in
  find 0

(* Fault site: quantify the wrong track — a classic off-by-one in the
   de Bruijn-style track allocation.  The shift is downward (an enclosing
   variable's track is erased instead of the bound one) so the corrupted
   automaton stays small instead of diverging. *)
let site_projection_shift =
  Faults.register ~name:"mso.projection_shift"
    ~descr:"project track next-1 instead of next at a quantifier" ()

let project_bound next a =
  let v =
    if Faults.fire site_projection_shift then max 0 (next - 1) else next
  in
  Treeauto.project v a

(* The compiler proper, under an explicit track assignment of the free
   variables ([next] is the first free track, used for bound variables). *)
let rec compile_sub tenv next f =
  let cache = cache () in
  let key, tracks = key_of tenv f in
  let compiled () =
    Engine.tick ();
    comp_raw tenv next f
  in
  match Cache.find_opt cache key with
  | None ->
    let a = compiled () in
    Cache.add cache key { source = (tracks, a); variants = [ (tracks, a) ] };
    a
  | Some entry -> (
    match List.assoc_opt tracks entry.variants with
    | Some a -> a
    | None ->
      let src, a = entry.source in
      let a =
        try Treeauto.rename (track_map src tracks) a
        with Foreign_track -> compiled ()
      in
      entry.variants <- (tracks, a) :: entry.variants;
      a)

and comp_raw tenv next f =
  let comp = compile_sub in
  let bind x = { tenv with bound = (x, { tr = next; kind = FO }) :: tenv.bound } in
  let t = track tenv in
  let fo v = (binding tenv v).kind = FO in
  let fo_tracks vs =
    List.sort_uniq Int.compare (List.map t (List.filter fo vs))
  in
  (* Every position satisfies [g], and the tracks [xs] are singletons.
     Two singletons related by one of these guards (inclusion or
     equality) mark the same position, which is the one where [g] reads
     them set. *)
  let local g xs =
    match List.sort_uniq Int.compare xs with
    | [] -> local_all g
    | xs ->
      let at b = List.fold_left (fun g x -> Bdd.restrict g x b) g xs in
      auto_point xs ~leaf:(at true) ~node:(at true) ~above:(at false)
        ~other:(at false)
  in
  let point a = auto_point [ t a ] ~other:Bdd.top in
  let var2 op a b = op (Bdd.var (t a)) (Bdd.var (t b)) in
  let agreement ps =
    Bdd.conj_list (List.map (fun (a, b) -> var2 Bdd.iff a b) ps)
  in
  (* [∃x. g], or [∀x. g] as [¬∃x. ¬g], for a first-order [x], which
     ranges over singletons; [requantify h] is the same quantifier over
     [h].  ∃ distributes over ∨ and ∀ over ∧, which keeps intermediate
     automata small; ∃ hoists the conjuncts that do not mention [x] out of
     the quantifier. *)
  let quantify ~exists x g requantify =
    let again h = comp tenv next (requantify h) in
    match (exists, g.node) with
    | true, Or gs -> Treeauto.union_list (List.map again gs)
    | false, And gs -> Treeauto.inter_list (List.map again gs)
    | _ ->
      let dependent, independent =
        match g.node with
        | And gs -> List.partition (mentions x) gs
        | _ -> ([ g ], [])
      in
      let body = comp (bind x) (next + 1) (and_l dependent) in
      let body = if exists then body else Treeauto.complement body in
      let projected =
        project_bound next
          (Treeauto.minimize (Treeauto.inter (auto_sing next) body))
      in
      if exists then
        Treeauto.inter_list
          (projected :: List.map (comp tenv next) independent)
      else Treeauto.complement projected
  in
    match f.node with
    | True -> Treeauto.const true
    | False -> Treeauto.const false
    | Mem (a, b) -> local (var2 Bdd.imp a b) (t a :: fo_tracks [ b ])
    | EqPos (a, b) -> local (var2 Bdd.iff a b) (fo_tracks [ a; b ])
    | EmptySet a -> local (Bdd.nvar (t a)) (fo_tracks [ a ])
    | Sing a -> auto_sing (t a)
    | Root a -> point a ~leaf:Bdd.top ~node:Bdd.top ~above:Bdd.bot
    | IsNil a -> point a ~leaf:Bdd.top ~node:Bdd.bot ~above:Bdd.top
    | LeftOf (a, b) -> auto_below ~left:true (t a) (t b)
    | RightOf (a, b) -> auto_below ~left:false (t a) (t b)
    | AgreeAbove (z, strict, incl) ->
      let at = agreement incl in
      let above = Bdd.conj (agreement strict) at in
      (* a first-order label variable is restricted on its own *)
      List.fold_left
        (fun a x -> Treeauto.minimize (Treeauto.inter (auto_sing x) a))
        (point z ~leaf:at ~node:at ~above)
        (fo_tracks (List.concat_map (fun (a, b) -> [ a; b ]) (strict @ incl)))
    | Not g -> Treeauto.complement (comp tenv next g)
    | And gs -> Treeauto.inter_list (List.map (comp tenv next) gs)
    | Or gs -> Treeauto.union_list (List.map (comp tenv next) gs)
    | Imp (a, b) ->
      Treeauto.minimize
        (Treeauto.union
           (Treeauto.complement (comp tenv next a))
           (comp tenv next b))
    | Iff (a, b) ->
      let ca = comp tenv next a and cb = comp tenv next b in
      Treeauto.minimize
        (Treeauto.union (Treeauto.inter ca cb)
           (Treeauto.inter (Treeauto.complement ca) (Treeauto.complement cb)))
    | Exists1 (x, g) -> quantify ~exists:true x g (fun h -> mk (Exists1 (x, h)))
    | Forall1 (x, g) -> quantify ~exists:false x g (fun h -> mk (Forall1 (x, h)))

let compile env formula =
  let declared = Hashtbl.create 64 in
  List.iteri
    (fun i (v, kind) ->
      if not (Hashtbl.mem declared v) then Hashtbl.add declared v { tr = i; kind })
    env;
  let tenv = { declared; bound = [] } in
  let next = List.length env in
  (* Enforce singleton-ness of the declared first-order free variables:
     a variable that no atom reads, or one read only under a negation, is
     not restricted otherwise.  The conjunction is built raw, not through
     [and_l], so it is the intersection of the formula's automaton with
     the singleton ones, and it is cached like any subformula: solving
     the same formula again costs a lookup. *)
  let sings =
    List.filter_map
      (fun (v, k) -> if k = FO then Some (mk (Sing v)) else None)
      env
  in
  compile_sub tenv next (mk (And (formula :: sings)))

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)

type model = {
  tree : Treeauto.tree;
  assignment : (var * int list list) list;
}

let decode env tree =
  let positions = Treeauto.tree_positions tree in
  List.mapi
    (fun i (v, _) ->
      let paths =
        List.filter_map
          (fun (sub, path) ->
            let label =
              match sub with
              | Treeauto.Leaf l -> l
              | Treeauto.Node (l, _, _) -> l
            in
            if Treeauto.label_mem i label then Some path else None)
          positions
      in
      (v, paths))
    env

let solve env formula =
  match Treeauto.witness (compile env formula) with
  | None -> None
  | Some tree -> Some { tree; assignment = decode env tree }

let satisfiable env formula = Option.is_some (solve env formula)
