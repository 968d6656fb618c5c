(* Tests for the MSO-over-trees decision procedure: the compiled automata
   must agree with the direct (reference) evaluator, and classic validities
   of the logic must be decided correctly. *)

open Mso

(* --- random formulas over a fixed variable universe --- *)

let so_vars = [ "X"; "Y" ]
let fo_vars = [ "x"; "y" ]

let env : env = [ ("X", SO); ("Y", SO); ("x", FO); ("y", FO) ]

let atom_gen =
  QCheck2.Gen.(
    let so = oneofl so_vars and fo = oneofl fo_vars in
    oneof
      [
        map2 (fun a b -> Sub (a, b)) so so;
        map2 (fun a b -> EqSet (a, b)) so so;
        map (fun a -> EmptySet a) so;
        map (fun a -> Sing a) so;
        map2 (fun a b -> Mem (a, b)) fo so;
        map2 (fun a b -> EqPos (a, b)) fo fo;
        map2 (fun a b -> LeftOf (a, b)) fo fo;
        map2 (fun a b -> RightOf (a, b)) fo fo;
        map (fun a -> Root a) fo;
        map (fun a -> IsNil a) fo;
        map2 (fun a b -> Reach (a, b)) fo fo;
        return True;
        return False;
      ])

let formula_gen =
  QCheck2.Gen.(
    sized_size (int_bound 4) @@ fix (fun self n ->
        if n <= 0 then atom_gen
        else
          oneof
            [
              atom_gen;
              map (fun f -> Not f) (self (n - 1));
              map2 (fun a b -> And [ a; b ]) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Or [ a; b ]) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Imp (a, b)) (self (n / 2)) (self (n / 2));
              (* quantifiers over fresh names to keep eval cheap *)
              map (fun f -> Exists1 ("q", f))
                (map
                   (fun f -> Or [ f; Root "q" ])
                   (self (n - 1)));
              map (fun f -> Forall1 ("q", f))
                (map (fun f -> Or [ f; IsNil "q" ]) (self (n - 1)));
              map (fun f -> Exists2 ("Q", f))
                (map (fun f -> And [ f; EmptySet "Q" ]) (self (n - 1)));
            ]))

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

(* [g] with X and Y, and x and y, exchanged: conjoined with [g], it
   makes one compile meet alpha-equivalent subformulas over other
   tracks. *)
let rec swap = function
  | Sub (a, b) -> Sub (sw a, sw b)
  | EqSet (a, b) -> EqSet (sw a, sw b)
  | EmptySet a -> EmptySet (sw a)
  | Sing a -> Sing (sw a)
  | Mem (a, b) -> Mem (sw a, sw b)
  | EqPos (a, b) -> EqPos (sw a, sw b)
  | LeftOf (a, b) -> LeftOf (sw a, sw b)
  | RightOf (a, b) -> RightOf (sw a, sw b)
  | Root a -> Root (sw a)
  | IsNil a -> IsNil (sw a)
  | Reach (a, b) -> Reach (sw a, sw b)
  | AgreeAbove (z, s, i) ->
    let ps = List.map (fun (a, b) -> (sw a, sw b)) in
    AgreeAbove (sw z, ps s, ps i)
  | (True | False) as f -> f
  | Not f -> Not (swap f)
  | And fs -> And (List.map swap fs)
  | Or fs -> Or (List.map swap fs)
  | Imp (a, b) -> Imp (swap a, swap b)
  | Iff (a, b) -> Iff (swap a, swap b)
  | Exists2 (x, f) -> Exists2 (x, swap f)
  | Forall2 (x, f) -> Forall2 (x, swap f)
  | Exists1 (x, f) -> Exists1 (x, swap f)
  | Forall1 (x, f) -> Forall1 (x, swap f)

and sw = function "X" -> "Y" | "Y" -> "X" | "x" -> "y" | "y" -> "x" | v -> v

(* [env] spread over more tracks: [pads.(i)] unused second-order
   variables before the i-th variable (and after the last), so the
   variables keep their order but not their tracks, and [next] moves. *)
let spread pads =
  let pad i = List.init pads.(i) (fun k -> (Printf.sprintf "P%d_%d" i k, SO)) in
  List.concat (List.mapi (fun i d -> pad i @ [ d ]) env) @ pad 4

let equivariance_gen =
  QCheck2.Gen.(
    let* g = formula_gen in
    let* f = oneofl [ g; And [ g; swap g ] ] in
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
      let track v =
        let rec go i = function
          | (w, _) :: rest -> if w = v then i else go (i + 1) rest
          | [] -> assert false
        in
        go 0 env'
      in
      let to_env' = Array.of_list (List.map (fun (v, _) -> track v) env) in
      Solver_ctx.with_fresh (fun () ->
          let b = compile env' f in
          let r = Treeauto.rename (fun t -> to_env'.(t)) a in
          a_ordered && ordered () && same_automaton b r))

(* The kinds of a subformula's free variables are part of its cache key.
   [Sub (v, X)] compiles restricted to singletons when [v] is
   first-order and over sets when it is second-order, so on one context
   neither automaton may serve the alpha-equivalent request of the other
   kind: each compile there must equal, node for node, its compile on a
   fresh context.  Both are imported into a third context, by the
   identity renaming, to be compared. *)
let test_cache_keys_on_kinds () =
  let over_fo = ([ ("x", FO); ("X", SO) ], Sub ("x", "X"))
  and over_so = ([ ("y", SO); ("Y", SO) ], Sub ("y", "Y")) in
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

(* Under an armed mso.projection_shift, the quantifier of [∃q. x ≤ q]
   erases x's track instead of q's, so the compiled automaton reads a
   track that is not one of its free variables'.  The alpha-equivalent
   request over another track must compile afresh instead of renaming
   it (the fault then fires a second time). *)
let test_projection_shift_compiles () =
  let site = "mso.projection_shift" in
  let f v = Exists1 ("q", Reach (v, "q")) in
  Solver_ctx.with_fresh (fun () ->
      Faults.arm ~period:1 ~site ~seed:1 ();
      Fun.protect ~finally:Faults.disarm (fun () ->
          ignore (compile [ ("x", SO) ] (f "x"));
          ignore (compile [ ("Z", SO); ("y", SO) ] (f "y"));
          Alcotest.(check int) "both compiled" 2 (Faults.fired_count ~site)))

(* --- validities --- *)

let fo_env vars : env = List.map (fun v -> (v, FO)) vars
let forall1_many xs f = List.fold_right (fun x acc -> Forall1 (x, acc)) xs f
let exists1_many xs f = List.fold_right (fun x acc -> Exists1 (x, acc)) xs f

(* Valid: no counter-interpretation exists. *)
let valid e f = not (satisfiable e (not_ f))

let check_valid name f e = Alcotest.(check bool) name true (valid e f)
let check_sat name f e = Alcotest.(check bool) name true (satisfiable e f)
let check_unsat name f e = Alcotest.(check bool) name false (satisfiable e f)

let test_validities () =
  check_valid "reach reflexive" (Forall1 ("x", Reach ("x", "x"))) [];
  check_valid "reach transitive"
    (forall1_many [ "x"; "y"; "z" ]
       (imp (and_l [ Reach ("x", "y"); Reach ("y", "z") ]) (Reach ("x", "z"))))
    [];
  check_valid "left implies proper reach"
    (forall1_many [ "x"; "y" ]
       (imp (LeftOf ("x", "y"))
          (and_l [ Reach ("x", "y"); not_ (EqPos ("x", "y")) ])))
    [];
  check_valid "unique root"
    (Exists1 ("x", And [ Root "x"; Forall1 ("y", imp (Root "y") (EqPos ("x", "y"))) ]))
    [];
  check_valid "root reaches everything"
    (forall1_many [ "x"; "y" ] (imp (Root "x") (Reach ("x", "y"))))
    [];
  check_valid "children are ordered"
    (forall1_many [ "x"; "y"; "z" ]
       (imp (and_l [ LeftOf ("x", "y"); RightOf ("x", "z") ])
          (not_ (EqPos ("y", "z")))))
    []

let test_satisfiability () =
  check_sat "a nil node exists" (Exists1 ("x", IsNil "x")) [];
  check_unsat "nil with a left child"
    (exists1_many [ "x"; "y" ] (and_l [ IsNil "x"; LeftOf ("x", "y") ]))
    [];
  check_sat "internal node possible"
    (Exists1 ("x", not_ (IsNil "x")))
    [];
  check_unsat "single position tree is a leaf, root cannot be internal and childless"
    (Exists1 ("x", and_l [ not_ (IsNil "x");
                           Forall1 ("y", EqPos ("x", "y")) ]))
    [];
  (* free variables *)
  check_sat "free SO var can hold all nils"
    (Forall1 ("u", iff (Mem ("u", "X")) (IsNil "u")))
    [ ("X", SO) ];
  check_unsat "x below and above y strictly"
    (and_l
       [ Reach ("x", "y"); Reach ("y", "x"); not_ (EqPos ("x", "y")) ])
    (fo_env [ "x"; "y" ])

(* An undeclared free variable is refused before anything is compiled,
   also inside a quantifier and under a shadowed name. *)
let test_undeclared () =
  let refused v f =
    let msg = Printf.sprintf "Mso.compile: free variable %s undeclared" v in
    Alcotest.check_raises ("undeclared " ^ v) (Invalid_argument msg)
      (fun () -> ignore (satisfiable [ ("x", FO) ] f))
  in
  refused "y" (Reach ("x", "y"));
  refused "Y" (Exists1 ("x", Mem ("x", "Y")))

let test_witness_decoding () =
  (* X = set of nil positions, plus force at least one internal node: the
     minimal witness is a root with two nil children. *)
  let f =
    and_l
      [
        Forall1 ("u", iff (Mem ("u", "X")) (IsNil "u"));
        Exists1 ("u", not_ (IsNil "u"));
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
     corresponding statement: no position below a nil. *)
  check_valid "nothing strictly below a nil"
    (forall1_many [ "x"; "y" ]
       (imp (and_l [ IsNil "x"; Reach ("x", "y") ]) (EqPos ("x", "y"))))
    []

let test_smart_constructors () =
  Alcotest.(check bool) "and_l folds false" true (and_l [ True; False ] = False);
  Alcotest.(check bool) "or_l folds true" true (or_l [ False; True ] = True);
  Alcotest.(check bool) "and_l single" true (and_l [ Sing "X" ] = Sing "X");
  Alcotest.(check bool) "not_ involutive" true (not_ (not_ (Sing "X")) = Sing "X");
  Alcotest.(check (list string)) "free vars" [ "X"; "y" ]
    (free_vars (Exists1 ("x", And [ Mem ("x", "X"); EqPos ("x", "y") ])))

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
      LeftOf ("x", "y"); RightOf ("x", "y"); Reach ("x", "y"); Root "x";
      IsNil "x"; Sing "X"; Sub ("X", "Y"); Mem ("x", "X"); EqPos ("x", "y");
      EqSet ("X", "Y"); EmptySet "X";
      Exists1 ("q", Or [ Mem ("q", "X"); Root "q" ]);
      Forall1 ("q", Or [ Reach ("q", "x"); IsNil "q" ]);
      Exists2 ("Q", And [ Sub ("Q", "X"); EmptySet "Q" ]);
      Not (Reach ("x", "y"));
      And [ LeftOf ("x", "y"); Mem ("y", "X") ];
      Or [ RightOf ("x", "y"); EqPos ("x", "y") ];
      Imp (Root "x", IsNil "y");
      Iff (IsNil "x", IsNil "y");
      Forall1 ("q", Imp (Mem ("q", "X"), IsNil "q"));
      Exists1 ("q", And [ LeftOf ("q", "x"); Mem ("q", "Y") ]);
      Exists1 ("q", And [ RightOf ("q", "x"); Mem ("q", "Y") ]);
      AgreeAbove ("x", [ ("X", "Y") ], []);
      AgreeAbove ("x", [], [ ("X", "Y") ]);
      (* first-order variables where a set is read: each is still
         restricted to a singleton *)
      Sub ("x", "X"); Sub ("X", "x"); Sub ("x", "y"); EqSet ("x", "X");
      EqSet ("x", "y"); EmptySet "x"; Sing "x"; Mem ("x", "y");
      EqPos ("x", "X"); Not (Sub ("X", "x"));
      AgreeAbove ("x", [ ("y", "X") ], []);
      (* second-order variables where a position is read: false unless
         a singleton, as [eval] reads them *)
      Root "X"; IsNil "X"; Mem ("X", "y"); Reach ("X", "y");
      LeftOf ("x", "Y"); Not (RightOf ("X", "y"));
      AgreeAbove ("X", [ ("x", "y") ], []);
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
          Alcotest.test_case "cache keys on variable kinds" `Quick
            test_cache_keys_on_kinds;
          Alcotest.test_case "foreign track under projection_shift" `Quick
            test_projection_shift_compiles;
        ] );
    ]
