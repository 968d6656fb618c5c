(* Tests for the MSO-over-trees decision procedure: the compiled automata
   must agree with the direct (reference) evaluator, and classic validities
   of the logic must be decided correctly. *)

open Mso

let eval = Mso_eval.eval

(* Formulas are built through [mk]: one builder per node, raw (no
   folding), next to the smart constructors of [Mso]. *)
let empty a = mk (EmptySet a)
let sing a = mk (Sing a)
let mem a b = mk (Mem (a, b))
let eqpos a b = mk (EqPos (a, b))
let left a b = mk (LeftOf (a, b))
let right a b = mk (RightOf (a, b))
let root a = mk (Root a)
let isnil a = mk (IsNil a)
let agree z strict incl = mk (AgreeAbove (z, strict, incl))
let neg f = mk (Not f)
let conj fs = mk (And fs)
let disj fs = mk (Or fs)
let implies a b = mk (Imp (a, b))
let equiv a b = mk (Iff (a, b))
let ex1 x f = mk (Exists1 (x, f))
let all1 x f = mk (Forall1 (x, f))

(* --- random formulas over a fixed variable universe --- *)

let so_vars = [ "X"; "Y" ]
let fo_vars = [ "x"; "y" ]

let env : env = [ ("X", SO); ("Y", SO); ("x", FO); ("y", FO) ]

let atom_gen =
  QCheck2.Gen.(
    let so = oneofl so_vars and fo = oneofl fo_vars in
    oneof
      [
        map2 eqpos so so;
        map empty so;
        map sing so;
        map2 mem fo so;
        map2 eqpos fo fo;
        map2 left fo fo;
        map2 right fo fo;
        map root fo;
        map isnil fo;
        return true_;
        return false_;
      ])

(* With [~shadow], binders also rebind the declared names, so bound and
   free occurrences of one name meet in a formula. *)
let formula_gen_with ~shadow =
  QCheck2.Gen.(
    sized_size (int_bound 4) @@ fix (fun self n ->
        if n <= 0 then atom_gen
        else
          oneof
            ([
               atom_gen;
               map neg (self (n - 1));
               map2 (fun a b -> conj [ a; b ]) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> disj [ a; b ]) (self (n / 2)) (self (n / 2));
               map2 implies (self (n / 2)) (self (n / 2));
               (* quantifiers over fresh names to keep eval cheap *)
               map (fun f -> ex1 "q" (disj [ f; root "q" ])) (self (n - 1));
               map (fun f -> all1 "q" (disj [ f; isnil "q" ])) (self (n - 1));
               map (fun f -> ex1 "q" (conj [ f; isnil "q" ])) (self (n - 1));
             ]
            @
            if shadow then
              [
                map2 ex1 (oneofl fo_vars) (self (n - 1));
                map2 all1 (oneofl so_vars) (self (n - 1));
              ]
            else [])))

let formula_gen = formula_gen_with ~shadow:false

(* random shapes up to 7 positions *)
let shape_gen =
  QCheck2.Gen.(
    sized_size (int_bound 3) @@ fix (fun self n ->
        if n <= 0 then return (Treeauto.Leaf [])
        else
          oneof
            [
              return (Treeauto.Leaf []);
              map2
                (fun a b -> Treeauto.Node ([], a, b))
                (self (n / 2))
                (self (n / 2));
            ]))

(* Assign each declared variable a random set of positions (singleton for
   first-order variables); returns the assignment and the labelled tree. *)
let assignment_gen shape =
  let open QCheck2.Gen in
  let positions = List.map snd (Treeauto.tree_positions shape) in
  let subset = List.filter_map Fun.id in
  let pick_set =
    flatten_l
      (List.map (fun p -> map (fun b -> if b then Some p else None) bool)
         positions)
    >|= subset
  in
  let pick_pos = oneofl positions >|= fun p -> [ p ] in
  let* sx = pick_set and* sy = pick_set in
  let* px = pick_pos and* py = pick_pos in
  return [ ("X", sx); ("Y", sy); ("x", px); ("y", py) ]

let relabel shape assignment =
  let track v = match v with "X" -> 0 | "Y" -> 1 | "x" -> 2 | "y" -> 3 | _ -> -1 in
  let label_at path =
    List.filter_map
      (fun (v, set) -> if List.mem path set then Some (track v) else None)
      assignment
    |> List.sort_uniq Int.compare
  in
  let rec go path = function
    | Treeauto.Leaf _ -> Treeauto.Leaf (label_at (List.rev path))
    | Treeauto.Node (_, a, b) ->
      Treeauto.Node (label_at (List.rev path), go (0 :: path) a, go (1 :: path) b)
  in
  go [] shape

let case_gen =
  QCheck2.Gen.(
    let* f = formula_gen in
    let* shape = shape_gen in
    let* asg = assignment_gen shape in
    return (f, shape, asg))

let prop_compile_agrees_with_eval =
  QCheck2.Test.make ~name:"compiled automaton agrees with evaluator"
    ~count:400 case_gen (fun (f, shape, asg) ->
      let labelled = relabel shape asg in
      let auto = compile env f in
      Treeauto.accepts auto labelled = eval shape asg f)

let prop_models_satisfy =
  QCheck2.Test.make ~name:"solved models satisfy their formula" ~count:200
    formula_gen (fun f ->
      match solve env f with
      | Some { tree; assignment } -> eval tree assignment f
      | None -> true)

(* --- compile cache: alpha-equivalent subformulas share one compile --- *)

(* [f] with every variable, binders included, renamed by [r]. *)
let rec rename r f =
  let ps = List.map (fun (a, b) -> (r a, r b)) in
  let go = rename r in
  match f.node with
  | EmptySet a -> empty (r a)
  | Sing a -> sing (r a)
  | Mem (a, b) -> mem (r a) (r b)
  | EqPos (a, b) -> eqpos (r a) (r b)
  | LeftOf (a, b) -> left (r a) (r b)
  | RightOf (a, b) -> right (r a) (r b)
  | Root a -> root (r a)
  | IsNil a -> isnil (r a)
  | AgreeAbove (z, s, i) -> agree (r z) (ps s) (ps i)
  | True | False -> f
  | Not g -> neg (go g)
  | And gs -> conj (List.map go gs)
  | Or gs -> disj (List.map go gs)
  | Imp (a, b) -> implies (go a) (go b)
  | Iff (a, b) -> equiv (go a) (go b)
  | Exists1 (x, g) -> ex1 (r x) (go g)
  | Forall1 (x, g) -> all1 (r x) (go g)

(* [g] with X and Y, and x and y, exchanged: conjoined with [g], it
   makes one compile meet alpha-equivalent subformulas over other
   tracks. *)
let swap =
  rename (function "X" -> "Y" | "Y" -> "X" | "x" -> "y" | "y" -> "x" | v -> v)

(* [env] spread over more tracks: [pads.(i)] unused second-order
   variables before the i-th variable (and after the last), so the
   variables keep their order but not their tracks, and [next] moves. *)
let spread pads =
  let pad i = List.init pads.(i) (fun k -> (Printf.sprintf "P%d_%d" i k, SO)) in
  List.concat (List.mapi (fun i d -> pad i @ [ d ]) env) @ pad 4

let equivariance_gen =
  QCheck2.Gen.(
    let* g = formula_gen in
    let* f = oneofl [ g; conj [ g; swap g ] ] in
    let* pads = array_size (return 5) (int_bound 2) in
    let moved = Array.exists (( <> ) 0) pads in
    return (f, if moved then pads else [| 1; 0; 0; 0; 0 |]))

(* Node-for-node equality of two automata of the current context. *)
let same_automaton (a : Treeauto.t) (b : Treeauto.t) =
  a.nstates = b.nstates && a.accept = b.accept
  && Mtbdd.equal a.leaf b.leaf
  && Array.for_all2 (Array.for_all2 Mtbdd.equal) a.delta b.delta

let print_case (f, pads) =
  Fmt.str "%a with pads %a" Mona.pp_formula f Fmt.(Dump.array int) pads

(* The track map from [env] into [env'], which holds its variables in
   the same order, or renamed by [r] in the same order. *)
let tracks_into ?(r = Fun.id) env' =
  let track v =
    let rec go i = function
      | (w, _) :: rest -> if String.equal w (r v) then i else go (i + 1) rest
      | [] -> assert false
    in
    go 0 env'
  in
  let map = Array.of_list (List.map (fun (v, _) -> track v) env) in
  fun t -> map.(t)

(* Compiled on fresh contexts, the formula under the spread environment
   is, node for node, the renaming of its compile under [env]: the track
   order alone decides every construction, so the cache may serve one
   from the other.  Both MTBDD stores stay ordered, which a rename
   through a map that is not increasing would break. *)
let prop_compile_equivariant =
  QCheck2.Test.make ~name:"compile commutes with monotone renaming"
    ~count:300 ~print:print_case equivariance_gen (fun (f, pads) ->
      let env' = spread pads in
      let ordered () = Mtbdd.check_integrity () = Ok () in
      let a, a_ordered =
        Solver_ctx.with_fresh (fun () ->
            let a = compile env f in
            (a, ordered ()))
      in
      Solver_ctx.with_fresh (fun () ->
          let b = compile env' f in
          let r = Treeauto.rename (tracks_into env') a in
          a_ordered && ordered () && same_automaton b r))

(* Every variable, bound or free, renamed injectively: the free ones keep
   their order. *)
let renamed = function
  | "X" -> "A"
  | "Y" -> "B"
  | "x" -> "a"
  | "y" -> "b"
  | "q" -> "r"
  | v -> v

(* An alpha-renamed copy of a compiled formula, under the renamed
   environment spread over other tracks in the same order, is served by
   the compile cache: it ticks no step, and its automaton is, node for
   node, the first one renamed onto the new tracks.  A cache key that
   read a name, bound or free, or a track would miss here. *)
let prop_alpha_renamed_hit =
  QCheck2.Test.make ~name:"alpha-renamed copy is a cache hit" ~count:200
    ~print:print_case
    QCheck2.Gen.(
      pair (formula_gen_with ~shadow:true)
        (array_size (return 5) (int_bound 2)))
    (fun (f, pads) ->
      let env' = List.map (fun (v, k) -> (renamed v, k)) (spread pads) in
      Solver_ctx.with_fresh (fun () ->
          let a = compile env f in
          match Engine.metered (fun () -> compile env' (rename renamed f)) with
          | Ok b, usage ->
            usage.steps = 0
            && same_automaton b
                 (Treeauto.rename (tracks_into ~r:renamed env') a)
          | Error _, _ -> false))

(* The free variables of [f] in order of first occurrence, by a walk of
   the whole formula: the reference for the slot. *)
let reference_fv f =
  let rec go bound acc f =
    let var acc v = if List.mem v bound || List.mem v acc then acc else v :: acc in
    match f.node with
    | True | False -> acc
    | Mem (a, b) | EqPos (a, b) | LeftOf (a, b) | RightOf (a, b) ->
      var (var acc a) b
    | EmptySet a | Sing a | Root a | IsNil a -> var acc a
    | AgreeAbove (z, strict, incl) ->
      List.fold_left
        (fun acc (a, b) -> var (var acc a) b)
        (var acc z) (strict @ incl)
    | Not g -> go bound acc g
    | And gs | Or gs -> List.fold_left (go bound) acc gs
    | Imp (a, b) | Iff (a, b) -> go bound (go bound acc a) b
    | Exists1 (x, g) | Forall1 (x, g) -> go (x :: bound) acc g
  in
  List.rev (go [] [] f)

(* The slot's free variables are the reference walk's, also for a
   formula built over children whose slots are filled already. *)
let prop_free_vars =
  QCheck2.Test.make ~name:"free vars agree with a reference walk"
    ~count:300 ~print:(Fmt.str "%a" Mona.pp_formula)
    (formula_gen_with ~shadow:true) (fun f ->
      let g = conj [ f; ex1 "x" (disj [ neg f; swap f ]) ] in
      free_vars f = reference_fv f && free_vars g = reference_fv g)

(* The kinds of a subformula's free variables are part of its cache key.
   [EqPos (v, X)] compiles restricted to singletons when [v] is
   first-order and over sets when it is second-order, so on one context
   neither automaton may serve the alpha-equivalent request of the other
   kind: each compile there must equal, node for node, its compile on a
   fresh context.  Both are imported into a third context, by the
   identity renaming, to be compared. *)
let test_cache_keys_on_kinds () =
  let over_fo = ([ ("x", FO); ("X", SO) ], eqpos "x" "X")
  and over_so = ([ ("y", SO); ("Y", SO) ], eqpos "y" "Y") in
  let compile_case (e, f) = compile e f in
  List.iter
    (fun (order, cases) ->
      let shared = Solver_ctx.create () in
      List.iter
        (fun (name, case) ->
          let a = Solver_ctx.with_ctx shared (fun () -> compile_case case) in
          let b = Solver_ctx.with_fresh (fun () -> compile_case case) in
          Solver_ctx.with_fresh (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, %s" order name)
                true
                (same_automaton
                   (Treeauto.rename Fun.id a)
                   (Treeauto.rename Fun.id b))))
        cases)
    [
      ("first-order first",
       [ ("first-order", over_fo); ("second-order", over_so) ]);
      ("second-order first",
       [ ("second-order", over_so); ("first-order", over_fo) ]);
    ]

(* Under an armed mso.projection_shift, the quantifier of [∃q. q ∈ X]
   erases X's track instead of q's, so the compiled automaton reads a
   track that is not one of its free variables'.  The alpha-equivalent
   request over another track must compile afresh instead of renaming
   it (the fault then fires a second time). *)
let test_projection_shift_compiles () =
  let site = "mso.projection_shift" in
  let f v = ex1 "q" (mem "q" v) in
  Solver_ctx.with_fresh (fun () ->
      Faults.arm ~period:1 ~site ~seed:1 ();
      Fun.protect ~finally:Faults.disarm (fun () ->
          ignore (compile [ ("X", SO) ] (f "X"));
          ignore (compile [ ("Z", SO); ("Y", SO) ] (f "Y"));
          Alcotest.(check int) "both compiled" 2 (Faults.fired_count ~site)))

(* --- validities --- *)

let fo_env vars : env = List.map (fun v -> (v, FO)) vars
let forall1_many xs f = List.fold_right all1 xs f
let exists1_many xs f = List.fold_right ex1 xs f

(* Valid: no counter-interpretation exists. *)
let valid e f = not (satisfiable e (not_ f))

let check_valid name f e = Alcotest.(check bool) name true (valid e f)
let check_sat name f e = Alcotest.(check bool) name true (satisfiable e f)
let check_unsat name f e = Alcotest.(check bool) name false (satisfiable e f)

let child x y = or_l [ left x y; right x y ]

let test_validities () =
  check_valid "no position is its own child"
    (all1 "x" (not_ (child "x" "x")))
    [];
  check_valid "left child unique"
    (forall1_many [ "x"; "y"; "z" ]
       (imp (and_l [ left "x" "y"; left "x" "z" ]) (eqpos "y" "z")))
    [];
  check_valid "one parent"
    (forall1_many [ "x"; "y"; "z" ]
       (imp (and_l [ child "x" "z"; child "y" "z" ]) (eqpos "x" "y")))
    [];
  check_valid "unique root"
    (ex1 "x" (conj [ root "x"; all1 "y" (imp (root "y") (eqpos "x" "y")) ]))
    [];
  check_valid "every other position has a parent"
    (all1 "y" (or_l [ root "y"; ex1 "x" (child "x" "y") ]))
    [];
  check_valid "children are ordered"
    (forall1_many [ "x"; "y"; "z" ]
       (imp (and_l [ left "x" "y"; right "x" "z" ]) (not_ (eqpos "y" "z"))))
    []

let test_satisfiability () =
  check_sat "a nil node exists" (ex1 "x" (isnil "x")) [];
  check_unsat "nil with a left child"
    (exists1_many [ "x"; "y" ] (and_l [ isnil "x"; left "x" "y" ]))
    [];
  check_sat "internal node possible" (ex1 "x" (not_ (isnil "x"))) [];
  check_unsat "single position tree is a leaf, root cannot be internal and childless"
    (ex1 "x" (and_l [ not_ (isnil "x"); all1 "y" (eqpos "x" "y") ]))
    [];
  (* free variables *)
  check_sat "free SO var can hold all nils"
    (all1 "u" (iff (mem "u" "X") (isnil "u")))
    [ ("X", SO) ];
  check_unsat "x and y children of each other"
    (and_l [ child "x" "y"; child "y" "x" ])
    (fo_env [ "x"; "y" ])

(* An undeclared free variable is refused before anything is compiled,
   also inside a quantifier and under a shadowed name. *)
let test_undeclared () =
  let refused v f =
    let msg = Printf.sprintf "Mso.compile: free variable %s undeclared" v in
    Alcotest.check_raises ("undeclared " ^ v) (Invalid_argument msg)
      (fun () -> ignore (satisfiable [ ("x", FO) ] f))
  in
  refused "y" (left "x" "y");
  refused "Y" (ex1 "x" (mem "x" "Y"))

let test_witness_decoding () =
  (* X = set of nil positions, plus force at least one internal node: the
     minimal witness is a root with two nil children. *)
  let f =
    and_l
      [
        all1 "u" (iff (mem "u" "X") (isnil "u"));
        ex1 "u" (not_ (isnil "u"));
      ]
  in
  match solve [ ("X", SO) ] f with
  | None -> Alcotest.fail "expected satisfiable"
  | Some { tree; assignment } ->
    let nils =
      List.filter
        (fun (t, _) -> match t with Treeauto.Leaf _ -> true | _ -> false)
        (Treeauto.tree_positions tree)
      |> List.map snd |> List.sort compare
    in
    let x_set = List.sort compare (List.assoc "X" assignment) in
    Alcotest.(check bool) "X = nils" true (x_set = nils);
    Alcotest.(check bool) "has internal" true
      (match tree with Treeauto.Node _ -> true | _ -> false)

let test_paper_isnil_axiom () =
  (* In the paper's infinite-tree phrasing, isNil is closed downward.  In the
     finite-tree semantics, nil nodes simply have no children; check the
     corresponding statement: no child below a nil. *)
  check_valid "no child below a nil"
    (forall1_many [ "x"; "y" ] (imp (isnil "x") (not_ (child "x" "y"))))
    []

(* Formulas are compared by their skeletons: a slot filled on one side
   only must not tell equal formulas apart. *)
let test_smart_constructors () =
  let same name f g = Alcotest.(check bool) name true (Skeleton.equal f g) in
  let x = sing "X" in
  ignore (free_vars x);
  same "and_l folds false" (and_l [ true_; false_ ]) false_;
  same "or_l folds true" (or_l [ false_; true_ ]) true_;
  same "and_l single" (and_l [ x ]) (sing "X");
  same "not_ involutive" (not_ (not_ x)) (sing "X");
  same "and_l flattens" (and_l [ conj [ x; root "y" ]; x ])
    (conj [ sing "X"; root "y"; sing "X" ]);
  Alcotest.(check (list string)) "free vars" [ "X"; "y" ]
    (free_vars (ex1 "x" (conj [ mem "x" "X"; eqpos "x" "y" ])))

(* Deterministic exhaustive agreement check: a fixed set of formula
   templates (covering every atom and quantifier shape, including the
   direction-sensitive child atoms) against every shape with at most 5
   positions, every SO assignment and every FO position. *)
let test_exhaustive_agreement () =
  let shapes =
    let leaf = Treeauto.Leaf [] in
    let n a b = Treeauto.Node ([], a, b) in
    [
      leaf; n leaf leaf; n (n leaf leaf) leaf; n leaf (n leaf leaf);
      n (n leaf leaf) (n leaf leaf);
    ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: r ->
      let s = subsets r in
      s @ List.map (fun l -> x :: l) s
  in
  let templates =
    [
      left "x" "y"; right "x" "y"; root "x";
      isnil "x"; sing "X"; mem "x" "X"; eqpos "x" "y";
      eqpos "X" "Y"; empty "X";
      ex1 "q" (disj [ mem "q" "X"; root "q" ]);
      all1 "q" (disj [ left "q" "x"; isnil "q" ]);
      ex1 "q" (conj [ mem "q" "X"; isnil "q" ]);
      neg (left "x" "y");
      conj [ left "x" "y"; mem "y" "X" ];
      disj [ right "x" "y"; eqpos "x" "y" ];
      implies (root "x") (isnil "y");
      equiv (isnil "x") (isnil "y");
      all1 "q" (implies (mem "q" "X") (isnil "q"));
      ex1 "q" (conj [ left "q" "x"; mem "q" "Y" ]);
      ex1 "q" (conj [ right "q" "x"; mem "q" "Y" ]);
      agree "x" [ ("X", "Y") ] [];
      agree "x" [] [ ("X", "Y") ];
      (* first-order variables where a set is read: each is still
         restricted to a singleton *)
      empty "x"; sing "x"; mem "x" "y";
      eqpos "x" "X"; eqpos "X" "x"; neg (eqpos "X" "x");
      agree "x" [ ("y", "X") ] [];
      (* second-order variables where a position is read: false unless
         a singleton, as [eval] reads them *)
      root "X"; isnil "X"; mem "X" "y"; left "X" "y";
      left "x" "Y"; neg (right "X" "y");
      agree "X" [ ("x", "y") ] [];
    ]
  in
  let mismatches = ref 0 in
  List.iter
    (fun f ->
      let auto = compile env f in
      let used = free_vars f in
      let dim all v = if List.mem v used then all else [ List.hd all ] in
      List.iter
        (fun shape ->
          let poss = List.map snd (Treeauto.tree_positions shape) in
          (* only enumerate the dimensions the formula actually reads *)
          List.iter
            (fun sx ->
              List.iter
                (fun sy ->
                  List.iter
                    (fun px ->
                      List.iter
                        (fun py ->
                          let asg =
                            [ ("X", sx); ("Y", sy); ("x", [ px ]); ("y", [ py ]) ]
                          in
                          let t = relabel shape asg in
                          if Treeauto.accepts auto t <> eval shape asg f then
                            incr mismatches)
                        (dim poss "y"))
                    (dim poss "x"))
                (dim (subsets poss) "Y"))
            (dim (subsets poss) "X"))
        shapes)
    templates;
  Alcotest.(check int) "no mismatches" 0 !mismatches

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mso"
    [
      ( "agreement",
        [
          qt prop_compile_agrees_with_eval;
          qt prop_models_satisfy;
          Alcotest.test_case "exhaustive templates" `Quick
            test_exhaustive_agreement;
        ] );
      ( "decision",
        [
          Alcotest.test_case "validities" `Quick test_validities;
          Alcotest.test_case "satisfiability" `Quick test_satisfiability;
          Alcotest.test_case "witness decoding" `Quick test_witness_decoding;
          Alcotest.test_case "undeclared variable" `Quick test_undeclared;
          Alcotest.test_case "isnil axiom" `Quick test_paper_isnil_axiom;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
        ] );
      ( "cache",
        [
          qt prop_compile_equivariant;
          qt prop_alpha_renamed_hit;
          qt prop_free_vars;
          Alcotest.test_case "cache keys on variable kinds" `Quick
            test_cache_keys_on_kinds;
          Alcotest.test_case "foreign track under projection_shift" `Quick
            test_projection_shift_compiles;
        ] );
    ]
