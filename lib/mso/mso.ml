let src = Logs.Src.create "retreet.mso" ~doc:"MSO over binary trees"

module Log = (val Logs.src_log src : Logs.LOG)

type var = string

type formula =
  | True
  | False
  | Sub of var * var
  | EqSet of var * var
  | EmptySet of var
  | Sing of var
  | Mem of var * var
  | EqPos of var * var
  | LeftOf of var * var
  | RightOf of var * var
  | Root of var
  | IsNil of var
  | Reach of var * var
  | AgreeAbove of var * (var * var) list * (var * var) list
  | Not of formula
  | And of formula list
  | Or of formula list
  | Imp of formula * formula
  | Iff of formula * formula
  | Exists2 of var * formula
  | Forall2 of var * formula
  | Exists1 of var * formula
  | Forall1 of var * formula

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)

let and_l fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> flatten acc rest
    | False :: _ -> None
    | And gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_l fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> flatten acc rest
    | True :: _ -> None
    | Or gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let rec imp a b =
  match (a, b) with
  | True, b -> b
  | False, _ -> True
  | a, False -> not_ a
  | _, True -> True
  | a, And bs ->
    (* distribute: a → (b1 ∧ b2) = (a → b1) ∧ (a → b2); subformula caching
       in the compiler makes the duplicated antecedent cheap, and universal
       quantifiers then distribute over the resulting conjunction *)
    and_l (List.map (imp a) bs)
  | _ -> Imp (a, b)

let iff a b =
  match (a, b) with
  | True, b -> b
  | b, True -> b
  | False, b -> not_ b
  | b, False -> not_ b
  | _ -> Iff (a, b)

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)

module VSet = Set.Make (String)

let rec fv = function
  | True | False -> VSet.empty
  | Sub (a, b) | EqSet (a, b) | Mem (a, b) | EqPos (a, b)
  | LeftOf (a, b) | RightOf (a, b) | Reach (a, b) ->
    VSet.of_list [ a; b ]
  | EmptySet a | Sing a | Root a | IsNil a -> VSet.singleton a
  | AgreeAbove (z, strict, incl) ->
    VSet.of_list
      (z :: List.concat_map (fun (a, b) -> [ a; b ]) (strict @ incl))
  | Not f -> fv f
  | And fs | Or fs -> List.fold_left (fun s f -> VSet.union s (fv f)) VSet.empty fs
  | Imp (a, b) | Iff (a, b) -> VSet.union (fv a) (fv b)
  | Exists2 (x, f) | Forall2 (x, f) | Exists1 (x, f) | Forall1 (x, f) ->
    VSet.remove x (fv f)

let free_vars f = VSet.elements (fv f)

(* ------------------------------------------------------------------ *)
(* Atom automata.

   Each atom is compiled restricted to the assignments under which every
   first-order variable it reads (declared [FO], or bound by [Exists1] or
   [Forall1]) is a singleton: it rejects any other assignment.  So no
   automaton built from atoms tracks a set-valued first-order variable,
   and products of atoms over the same position stay small.  A position
   argument (the element of [Mem], both arguments of [LeftOf], [RightOf]
   and [Reach], the argument of [Root] and [IsNil], the [z] of
   [AgreeAbove]) is restricted whatever its kind, as [eval] reads it; a
   set argument only when its variable is first-order.  Each restricted
   atom is one construction ([auto_point], [auto_below]).

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

(* Position [y] below position [x]: with [~child:(Some left)], y is
   the left (right) child of x; with [~child:None], x is an ancestor of
   y or y itself.  States: 0 = neither seen, 1 = y seen and x not, 2 =
   relation established, 3 = refuted. *)
let auto_below ~child x y =
  let entry =
    bits2 x y (fun bx by ->
        if bx && by && child = None then 2
        else if bx then 3
        else if by then 1
        else 0)
  in
  Treeauto.make ~nstates:4 ~leaf:entry
    ~delta:(fun ql qr ->
      match (ql, qr, child) with
      | 0, 0, _ -> entry
      | 1, 0, (None | Some true) | 0, 1, (None | Some false) ->
        bits2 x y (fun bx by ->
            if by then 3 else if bx then 2 else if child = None then 1 else 3)
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

(* Equality of canonical forms.  Two subformulas over the same free
   variables that are equal as they stand are equal canonically; that is
   the common case, and [compare] decides it in C, at once on physically
   equal terms. *)
let alpha_equal k1 k2 =
  let n1 = k1.names and n2 = k2.names in
  let rec eq b1 b2 f1 f2 =
    let v a c = canonical n1 b1 a = canonical n2 b2 c in
    let pairs = List.equal (fun (a, b) (c, d) -> v a c && v b d) in
    match (f1, f2) with
    | True, True | False, False -> true
    | Sub (a, b), Sub (c, d)
    | EqSet (a, b), EqSet (c, d)
    | Mem (a, b), Mem (c, d)
    | EqPos (a, b), EqPos (c, d)
    | LeftOf (a, b), LeftOf (c, d)
    | RightOf (a, b), RightOf (c, d)
    | Reach (a, b), Reach (c, d) ->
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
    | Exists2 (x, g), Exists2 (y, h)
    | Forall2 (x, g), Forall2 (y, h)
    | Exists1 (x, g), Exists1 (y, h)
    | Forall1 (x, g), Forall1 (y, h) ->
      eq (x :: b1) (y :: b2) g h
    | _ -> false
  in
  Array.length n1 = Array.length n2
  && k1.kinds = k2.kinds
  && ((Array.for_all2 String.equal n1 n2 && compare k1.f k2.f = 0)
     || eq [] [] k1.f k2.f)

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
   kind, innermost binding first.  The kinds travel with the compile, so
   compiles on two domains never see each other's. *)
type binding = { tr : int; kind : kind }

(* The binding of [v] under [tenv]: its first binding is in effect.
   [compile] builds the key of its formula before compiling anything, so
   an undeclared free variable is reported from here. *)
let binding tenv v =
  match List.assoc_opt v tenv with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "Mso.compile: free variable %s undeclared" v)

let track tenv v = (binding tenv v).tr

(* The key of [f] under [tenv], and the tracks of its free variables in
   ascending order, from one walk.  The hash reads the whole formula,
   with each bound variable numbered by its de Bruijn index and each free
   one by its first occurrence, and then the order of the free
   variables' tracks and their kinds in that order: both numberings are
   alpha-invariant. *)
let key_of tenv f =
  let first = Hashtbl.create 16 and free = ref [] in
  let h = ref 0 in
  let mix x = h := (!h * 31) + x in
  let rec index i v = function
    | b :: rest -> if String.equal b v then -1 - i else index (i + 1) v rest
    | [] -> (
      match Hashtbl.find_opt first v with
      | Some k -> k
      | None ->
        let k = Hashtbl.length first in
        Hashtbl.add first v k;
        free := (v, binding tenv v) :: !free;
        k)
  in
  let var bound v = mix (index 0 v bound) in
  let rec pairs bound = function
    | [] -> mix 0
    | (a, b) :: rest ->
      var bound a;
      var bound b;
      pairs bound rest
  in
  let rec walk bound f =
    match f with
    | True -> mix 1
    | False -> mix 2
    | Sub (a, b) -> mix 3; var bound a; var bound b
    | EqSet (a, b) -> mix 4; var bound a; var bound b
    | EmptySet a -> mix 5; var bound a
    | Sing a -> mix 6; var bound a
    | Mem (a, b) -> mix 7; var bound a; var bound b
    | EqPos (a, b) -> mix 8; var bound a; var bound b
    | LeftOf (a, b) -> mix 9; var bound a; var bound b
    | RightOf (a, b) -> mix 10; var bound a; var bound b
    | Root a -> mix 11; var bound a
    | IsNil a -> mix 12; var bound a
    | Reach (a, b) -> mix 13; var bound a; var bound b
    | AgreeAbove (z, strict, incl) ->
      mix 14; var bound z; pairs bound strict; pairs bound incl
    | Not g -> mix 15; walk bound g
    | And gs -> mix 16; walk_list bound gs
    | Or gs -> mix 17; walk_list bound gs
    | Imp (a, b) -> mix 18; walk bound a; walk bound b
    | Iff (a, b) -> mix 19; walk bound a; walk bound b
    | Exists2 (x, g) -> mix 20; walk (x :: bound) g
    | Forall2 (x, g) -> mix 21; walk (x :: bound) g
    | Exists1 (x, g) -> mix 22; walk (x :: bound) g
    | Forall1 (x, g) -> mix 23; walk (x :: bound) g
  and walk_list bound = function
    | [] -> mix 0
    | g :: gs ->
      walk bound g;
      walk_list bound gs
  in
  walk [] f;
  let free = Array.of_list (List.rev !free) in
  let by_rank = Array.init (Array.length free) Fun.id in
  Array.sort
    (fun k k' -> Int.compare (snd free.(k)).tr (snd free.(k')).tr)
    by_rank;
  Array.iter mix by_rank;
  let free = Array.map (fun k -> free.(k)) by_rank in
  let kinds = Array.map (fun (_, b) -> b.kind) free in
  Array.iter (fun k -> mix (if k = FO then 1 else 2)) kinds;
  ( { hash = Hashtbl.hash !h; f; names = Array.map fst free; kinds },
    Array.map (fun (_, b) -> b.tr) free )

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
  let bind x kind = (x, { tr = next; kind }) :: tenv in
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
    match f with
    | True -> Treeauto.const true
    | False -> Treeauto.const false
    | Sub (a, b) -> local (var2 Bdd.imp a b) (fo_tracks [ a; b ])
    | Mem (a, b) -> local (var2 Bdd.imp a b) (t a :: fo_tracks [ b ])
    | EqSet (a, b) | EqPos (a, b) ->
      local (var2 Bdd.iff a b) (fo_tracks [ a; b ])
    | EmptySet a -> local (Bdd.nvar (t a)) (fo_tracks [ a ])
    | Sing a -> auto_sing (t a)
    | Root a -> point a ~leaf:Bdd.top ~node:Bdd.top ~above:Bdd.bot
    | IsNil a -> point a ~leaf:Bdd.top ~node:Bdd.bot ~above:Bdd.top
    | LeftOf (a, b) -> auto_below ~child:(Some true) (t a) (t b)
    | RightOf (a, b) -> auto_below ~child:(Some false) (t a) (t b)
    | Reach (a, b) -> auto_below ~child:None (t a) (t b)
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
    | Exists2 (x, Or gs) ->
      (* ∃ distributes over ∨: keeps intermediate automata small *)
      Treeauto.union_list (List.map (fun g -> comp tenv next (Exists2 (x, g))) gs)
    | Exists2 (x, g) ->
      (* hoist conjuncts that do not mention x out of the quantifier *)
      let dependent, independent =
        match g with
        | And gs -> List.partition (fun h -> VSet.mem x (fv h)) gs
        | _ -> ([ g ], [])
      in
      let inner =
        project_bound next
          (comp (bind x SO) (next + 1) (and_l dependent))
      in
      Treeauto.inter_list (inner :: List.map (comp tenv next) independent)
    | Forall2 (x, And gs) ->
      Treeauto.inter_list (List.map (fun g -> comp tenv next (Forall2 (x, g))) gs)
    | Forall2 (x, g) ->
      Treeauto.complement
        (project_bound next
           (Treeauto.complement (comp (bind x SO) (next + 1) g)))
    | Exists1 (x, Or gs) ->
      Treeauto.union_list (List.map (fun g -> comp tenv next (Exists1 (x, g))) gs)
    | Exists1 (x, g) ->
      (* hoist conjuncts that do not mention x out of the quantifier *)
      let dependent, independent =
        match g with
        | And gs -> List.partition (fun h -> VSet.mem x (fv h)) gs
        | _ -> ([ g ], [])
      in
      let inner =
        project_bound next
          (Treeauto.minimize
             (Treeauto.inter (auto_sing next)
                (comp (bind x FO) (next + 1) (and_l dependent))))
      in
      Treeauto.inter_list (inner :: List.map (comp tenv next) independent)
    | Forall1 (x, And gs) ->
      Treeauto.inter_list (List.map (fun g -> comp tenv next (Forall1 (x, g))) gs)
    | Forall1 (x, g) ->
      Treeauto.complement
        (project_bound next
           (Treeauto.minimize
              (Treeauto.inter (auto_sing next)
                 (Treeauto.complement (comp (bind x FO) (next + 1) g)))))

let compile env formula =
  let tenv = List.mapi (fun i (v, kind) -> (v, { tr = i; kind })) env in
  let next = List.length env in
  (* Enforce singleton-ness of the declared first-order free variables:
     a variable that no atom reads, or one read only under a negation, is
     not restricted otherwise.  The conjunction is built raw, not through
     [and_l], so it is the intersection of the formula's automaton with
     the singleton ones, and it is cached like any subformula: solving
     the same formula again costs a lookup. *)
  let sings =
    List.filter_map (fun (v, k) -> if k = FO then Some (Sing v) else None) env
  in
  compile_sub tenv next (And (formula :: sings))

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
  let a = compile env formula in
  Log.debug (fun m -> m "solve: automaton %a" Treeauto.pp_stats a);
  match Treeauto.witness a with
  | None -> None
  | Some tree -> Some { tree; assignment = decode env tree }

let satisfiable env formula = Option.is_some (solve env formula)

(* ------------------------------------------------------------------ *)
(* Reference semantics                                                 *)

let eval tree assignment formula =
  let all_positions = List.map snd (Treeauto.tree_positions tree) in
  let subtree path =
    let rec go t = function
      | [] -> Some t
      | d :: rest -> (
        match t with
        | Treeauto.Leaf _ -> None
        | Treeauto.Node (_, l, r) -> go (if d = 0 then l else r) rest)
    in
    go tree path
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun l -> x :: l) s
  in
  let lookup asg v =
    match List.assoc_opt v asg with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Mso.eval: unbound variable %s" v)
  in
  let norm = List.sort_uniq compare in
  let rec go asg = function
    | True -> true
    | False -> false
    | Sub (a, b) ->
      let sb = norm (lookup asg b) in
      List.for_all (fun p -> List.mem p sb) (lookup asg a)
    | EqSet (a, b) -> norm (lookup asg a) = norm (lookup asg b)
    | EmptySet a -> lookup asg a = []
    | Sing a -> List.length (norm (lookup asg a)) = 1
    | Mem (a, b) -> (
      match norm (lookup asg a) with
      | [ p ] -> List.mem p (lookup asg b)
      | _ -> false)
    | EqPos (a, b) -> norm (lookup asg a) = norm (lookup asg b)
    | LeftOf (a, b) -> (
      match (norm (lookup asg a), norm (lookup asg b)) with
      | [ pa ], [ pb ] ->
        pb = pa @ [ 0 ]
        && (match subtree pa with
           | Some (Treeauto.Node _) -> true
           | _ -> false)
      | _ -> false)
    | RightOf (a, b) -> (
      match (norm (lookup asg a), norm (lookup asg b)) with
      | [ pa ], [ pb ] ->
        pb = pa @ [ 1 ]
        && (match subtree pa with
           | Some (Treeauto.Node _) -> true
           | _ -> false)
      | _ -> false)
    | Root a -> norm (lookup asg a) = [ [] ]
    | IsNil a -> (
      match norm (lookup asg a) with
      | [ p ] -> (
        match subtree p with Some (Treeauto.Leaf _) -> true | _ -> false)
      | _ -> false)
    | Reach (a, b) -> (
      match (norm (lookup asg a), norm (lookup asg b)) with
      | [ pa ], [ pb ] ->
        let rec prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | x :: xs', y :: ys' -> x = y && prefix xs' ys'
          | _ -> false
        in
        prefix pa pb
      | _ -> false)
    | AgreeAbove (z, strict, incl) -> (
      match norm (lookup asg z) with
      | [ pz ] ->
        let rec prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | x :: xs', y :: ys' -> x = y && prefix xs' ys'
          | _ -> false
        in
        let agree pairs v =
          List.for_all
            (fun (a, b) ->
              List.mem v (lookup asg a) = List.mem v (lookup asg b))
            pairs
        in
        List.for_all
          (fun v ->
            if v = pz then agree incl v
            else if prefix v pz then agree (strict @ incl) v
            else true)
          all_positions
      | _ -> false)
    | Not f -> not (go asg f)
    | And fs -> List.for_all (go asg) fs
    | Or fs -> List.exists (go asg) fs
    | Imp (a, b) -> (not (go asg a)) || go asg b
    | Iff (a, b) -> go asg a = go asg b
    | Exists2 (x, f) ->
      List.exists (fun s -> go ((x, s) :: asg) f) (subsets all_positions)
    | Forall2 (x, f) ->
      List.for_all (fun s -> go ((x, s) :: asg) f) (subsets all_positions)
    | Exists1 (x, f) ->
      List.exists (fun p -> go ((x, [ p ]) :: asg) f) all_positions
    | Forall1 (x, f) ->
      List.for_all (fun p -> go ((x, [ p ]) :: asg) f) all_positions
  in
  go assignment formula
