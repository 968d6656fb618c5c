(* Tests for the tree-automata substrate.  Explicit small automata with a
   known semantics are combined with boolean operations, projection and
   minimization, and the results are checked against brute force on random
   labelled trees. *)

open Treeauto

let tracks = [ 0; 1; 2 ]

(* Automaton: every position has track [v] set. *)
let all_track v =
  make ~nstates:2
    ~leaf:[ (Bdd.var v, 0); (Bdd.top, 1) ]
    ~delta:(fun q1 q2 ->
      if q1 = 0 && q2 = 0 then [ (Bdd.var v, 0); (Bdd.top, 1) ]
      else [ (Bdd.top, 1) ])
    ~accept:(fun q -> q = 0)

(* Automaton: some position has track [v] set. *)
let some_track v =
  make ~nstates:2
    ~leaf:[ (Bdd.var v, 1); (Bdd.top, 0) ]
    ~delta:(fun q1 q2 ->
      if q1 = 1 || q2 = 1 then [ (Bdd.top, 1) ]
      else [ (Bdd.var v, 1); (Bdd.top, 0) ])
    ~accept:(fun q -> q = 1)

(* Automaton: exactly one position has track [v] set (states count 0/1/2+). *)
let one_track v =
  make ~nstates:3
    ~leaf:[ (Bdd.var v, 1); (Bdd.top, 0) ]
    ~delta:(fun q1 q2 ->
      let n = min 2 (q1 + q2) in
      [ (Bdd.var v, min 2 (n + 1)); (Bdd.top, n) ])
    ~accept:(fun q -> q = 1)

(* Reference predicates. *)
let rec positions = function
  | Leaf l -> [ l ]
  | Node (l, a, b) -> (l :: positions a) @ positions b

let sem_all v t = List.for_all (label_mem v) (positions t)
let sem_some v t = List.exists (label_mem v) (positions t)

let sem_one v t =
  List.length (List.filter (label_mem v) (positions t)) = 1

let tree_gen =
  let open QCheck2.Gen in
  let label_gen =
    map label_of_bits
      (flatten_l (List.map (fun v -> map (fun b -> (v, b)) bool) tracks))
  in
  sized @@ fix (fun self n ->
      if n <= 0 then map (fun l -> Leaf l) label_gen
      else
        oneof
          [
            map (fun l -> Leaf l) label_gen;
            map3
              (fun l a b -> Node (l, a, b))
              label_gen
              (self (n / 2))
              (self (n / 2));
          ])

let prop name count f = QCheck2.Test.make ~name ~count tree_gen f

let prop_atoms =
  [
    prop "all_track semantics" 300 (fun t ->
        accepts (all_track 0) t = sem_all 0 t);
    prop "some_track semantics" 300 (fun t ->
        accepts (some_track 1) t = sem_some 1 t);
    prop "one_track semantics" 300 (fun t ->
        accepts (one_track 2) t = sem_one 2 t);
  ]

let prop_boolean =
  [
    prop "inter" 300 (fun t ->
        accepts (inter (all_track 0) (some_track 1)) t
        = (sem_all 0 t && sem_some 1 t));
    prop "union" 300 (fun t ->
        accepts (union (all_track 0) (one_track 1)) t
        = (sem_all 0 t || sem_one 1 t));
    prop "complement" 300 (fun t ->
        accepts (complement (some_track 2)) t = not (sem_some 2 t));
    prop "double complement" 100 (fun t ->
        accepts (complement (complement (one_track 0))) t
        = accepts (one_track 0) t);
  ]

let prop_minimize =
  [
    prop "minimize preserves language" 300 (fun t ->
        let a = inter (union (all_track 0) (one_track 1)) (some_track 2) in
        accepts (minimize a) t = accepts a t);
    QCheck2.Test.make ~name:"minimize shrinks or keeps" ~count:1
      (QCheck2.Gen.return ()) (fun () ->
        let a = inter (all_track 0) (inter (all_track 0) (all_track 0)) in
        size (minimize a) <= size a);
  ]

(* Enrich a tree: all ways of re-assigning track [v]. *)
let enrichments v t =
  let set_label b l =
    if b then List.sort_uniq Int.compare (v :: l)
    else List.filter (fun x -> x <> v) l
  in
  let rec go = function
    | Leaf l ->
      [ Leaf (set_label true l); Leaf (set_label false l) ]
    | Node (l, a, b) ->
      let las = go a and rbs = go b in
      List.concat_map
        (fun b_ ->
          List.concat_map
            (fun la ->
              List.concat_map
                (fun rb -> [ Node (set_label b_ l, la, rb) ])
                rbs)
            las)
        [ true; false ]
  in
  go t

let rec tree_size = function
  | Leaf _ -> 1
  | Node (_, a, b) -> 1 + tree_size a + tree_size b

(* Asymmetric automaton: track [v] occurs somewhere in the LEFT subtree of
   the root.  State = 2*contains + left_child_contains. *)
let left_subtree_has v =
  make ~nstates:4
    ~leaf:[ (Bdd.var v, 2); (Bdd.top, 0) ]
    ~delta:(fun q1 q2 ->
      let c1 = q1 >= 2 and c2 = q2 >= 2 in
      let lcc = if c1 then 1 else 0 in
      [
        (Bdd.var v, 2 + lcc);
        (Bdd.top, (if c1 || c2 then 2 else 0) + lcc);
      ])
    ~accept:(fun q -> q land 1 = 1)

let sem_left_subtree_has v = function
  | Leaf _ -> false
  | Node (_, l, _) -> List.exists (label_mem v) (positions l)

let prop_asymmetric =
  [
    prop "left_subtree_has semantics" 300 (fun t ->
        accepts (left_subtree_has 0) t = sem_left_subtree_has 0 t);
    prop "projection keeps asymmetry" 300 (fun t ->
        (* track 1 is independent, so projecting it must not change the
           language; this catches left/right transposition in the subset
           construction *)
        accepts (project 1 (left_subtree_has 0)) t
        = sem_left_subtree_has 0 t);
    prop "product keeps asymmetry" 300 (fun t ->
        accepts (inter (left_subtree_has 0) (complement (all_track 1))) t
        = (sem_left_subtree_has 0 t && not (sem_all 1 t)));
    prop "minimize keeps asymmetry" 300 (fun t ->
        accepts (minimize (left_subtree_has 0)) t = sem_left_subtree_has 0 t);
  ]

let prop_project =
  [
    prop "project = exists enrichment (one_track)" 120 (fun t ->
        tree_size t > 6
        ||
        let a = inter (one_track 1) (all_track 0) in
        let p = project 1 a in
        accepts p t = List.exists (accepts a) (enrichments 1 t));
    prop "project of track-independent automaton is identity" 200 (fun t ->
        let a = all_track 0 in
        accepts (project 1 a) t = accepts a t);
  ]

(* Automaton: the number of positions with track [v] is [r] mod 5. *)
let count_mod5 v r =
  make ~nstates:5
    ~leaf:[ (Bdd.var v, 1); (Bdd.top, 0) ]
    ~delta:(fun q1 q2 ->
      let n = (q1 + q2) mod 5 in
      [ (Bdd.var v, (n + 1) mod 5); (Bdd.top, n) ])
    ~accept:(fun q -> q = r)

let count v t = List.length (List.filter (label_mem v) (positions t))
let sem_mod5 v r t = count v t mod 5 = r

(* Three independent counters: 125 reachable, pairwise distinguishable
   states, enough to grow the construction's tables well past their
   initial capacity. *)
let counters op = op (op (count_mod5 0 0) (count_mod5 1 1)) (count_mod5 2 2)
let counters_inter = counters inter
let counters_union = counters union

let minimized_union = lazy (minimize counters_union)
let projected_inter = lazy (project 2 counters_inter)

let sem_counters t = (sem_mod5 0 0 t, sem_mod5 1 1 t, sem_mod5 2 2 t)

let prop_large =
  [
    QCheck2.Test.make ~name:"three mod-5 counters have 125 states" ~count:1
      (QCheck2.Gen.return ()) (fun () ->
        size counters_inter = 125 && size counters_union = 125);
    prop "inter of counters" 300 (fun t ->
        let a, b, c = sem_counters t in
        accepts counters_inter t = (a && b && c));
    prop "union of counters" 300 (fun t ->
        let a, b, c = sem_counters t in
        accepts counters_union t = (a || b || c));
    QCheck2.Test.make ~name:"minimize is idempotent on counters" ~count:1
      (QCheck2.Gen.return ()) (fun () ->
        List.for_all
          (fun a ->
            let m = minimize a in
            size m = 125 && minimize m == m)
          [ counters_inter; counters_union ]);
    prop "minimized counters keep the language" 300 (fun t ->
        accepts (Lazy.force minimized_union) t = accepts counters_union t);
    prop "project a counter" 300 (fun t ->
        (* any count of track-2 positions up to the tree size is possible,
           so some enrichment has two of them iff the tree has >= 2
           positions *)
        let a, b, _ = sem_counters t in
        accepts (Lazy.force projected_inter) t
        = (a && b && List.length (positions t) >= 2));
  ]

(* An automaton as node ids: its states, acceptance, and the ids of its
   leaf and transition diagrams. *)
let ids_of ~nstates ~accept ~leaf ~delta =
  ( nstates,
    Array.to_list accept,
    Mtbdd.hash leaf,
    Array.to_list (Array.map (fun r -> Array.to_list (Array.map Mtbdd.hash r)) delta) )

let ids a = ids_of ~nstates:a.nstates ~accept:a.accept ~leaf:a.leaf ~delta:a.delta

(* Moore refinement that maps every cell through one mapper per round,
   returning the ids of the result.  [minimize] maps only the distinct
   diagrams, in the order this loop first meets them, so it must build
   the same nodes in the same order: the transition matrix, then the
   leaf. *)
let reference_minimize a =
  let n = a.nstates in
  if n <= 1 then ids a
  else begin
    let cls = Array.init n (fun q -> if a.accept.(q) then 1 else 0) in
    let nclasses = ref 2 in
    if Array.for_all (fun c -> c = cls.(0)) cls then begin
      Array.fill cls 0 n 0;
      nclasses := 1
    end;
    let changed = ref true in
    while !changed do
      let map_cls = Mtbdd.mapper (fun q -> cls.(q)) in
      let signature q =
        let row = Array.make ((2 * n) + 1) cls.(q) in
        for q2 = 0 to n - 1 do
          row.((2 * q2) + 2) <- Mtbdd.hash (map_cls a.delta.(q2).(q));
          row.((2 * q2) + 1) <- Mtbdd.hash (map_cls a.delta.(q).(q2))
        done;
        row
      in
      let classes = Hashtbl.create 64 in
      let next =
        Array.init n (fun q ->
            let s = signature q in
            match Hashtbl.find_opt classes s with
            | Some c -> c
            | None ->
              let c = Hashtbl.length classes in
              Hashtbl.add classes s c;
              c)
      in
      changed := Hashtbl.length classes <> !nclasses;
      nclasses := Hashtbl.length classes;
      Array.blit next 0 cls 0 n
    done;
    let k = !nclasses in
    if k = n then ids a
    else begin
      let rep = Array.make k (-1) in
      for q = n - 1 downto 0 do
        rep.(cls.(q)) <- q
      done;
      let remap = Mtbdd.mapper (fun q -> cls.(q)) in
      let delta =
        Array.init k (fun c1 ->
            Array.init k (fun c2 -> remap a.delta.(rep.(c1)).(rep.(c2))))
      in
      let leaf = remap a.leaf in
      ids_of ~nstates:k ~leaf ~delta
        ~accept:(Array.init k (fun c -> a.accept.(rep.(c))))
    end
  end

(* A pseudo-random automaton over tracks 0-3 with states in pairs q and
   q + n that accept alike and move alike up to the pair, so minimizing
   merges them.  Each transition picks a state for each of three cases
   of two random tracks. *)
let paired_automaton seed n =
  let rs = Random.State.make [| seed |] in
  let cases () =
    let v1 = Random.State.int rs 4 and v2 = Random.State.int rs 4 in
    let q1 = Random.State.int rs n in
    let q2 = Random.State.int rs n in
    let q3 = Random.State.int rs n in
    [ (Bdd.conj (Bdd.var v1) (Bdd.var v2), q1); (Bdd.var v2, q2); (Bdd.top, q3) ]
  in
  let copy = List.map (fun (g, q) -> (g, if Random.State.bool rs then q + n else q)) in
  let leaf = copy (cases ()) in
  let table = Array.init n (fun _ -> Array.init n (fun _ -> cases ())) in
  let delta =
    Array.init (2 * n) (fun q1 ->
        Array.init (2 * n) (fun q2 -> copy table.(q1 mod n).(q2 mod n)))
  in
  make ~nstates:(2 * n) ~leaf
    ~delta:(fun q1 q2 -> delta.(q1).(q2))
    ~accept:(fun q -> q mod n mod 3 = 0)

(* Node ids are allocated consecutively per solver context, so equal ids
   and equal node counts from two fresh contexts mean the same nodes were
   built in the same order. *)
let test_minimize_reference () =
  let inputs =
    [
      (fun () -> union (some_track 0) (one_track 0));
      (fun () -> inter (one_track 1) (all_track 0));
      (fun () -> union (count_mod5 0 0) (complement (count_mod5 0 0)));
      (fun () -> union (count_mod5 0 0) (count_mod5 1 0));
      (fun () -> union (inter (one_track 0) (some_track 1)) (all_track 2));
      (fun () -> counters inter);
      (fun () -> paired_automaton 1 6);
      (fun () -> union (paired_automaton 2 4) (paired_automaton 3 3));
      (fun () -> inter (paired_automaton 4 5) (complement (paired_automaton 5 4)));
    ]
  in
  let run minimize build =
    Solver_ctx.with_fresh (fun () ->
        match Engine.metered (fun () -> minimize (build ())) with
        | Ok r, usage -> (r, usage.Engine.nodes)
        | Error _, _ -> Alcotest.fail "unexpected budget exhaustion")
  in
  List.iteri
    (fun i build ->
      let (n, acc, leaf, delta), nodes = run (fun a -> ids (minimize a)) build in
      let (n', acc', leaf', delta'), nodes' = run reference_minimize build in
      let name what = Printf.sprintf "input %d: %s" i what in
      Alcotest.(check int) (name "states") n' n;
      Alcotest.(check (list bool)) (name "acceptance") acc' acc;
      Alcotest.(check int) (name "leaf node") leaf' leaf;
      Alcotest.(check (list (list int))) (name "transition nodes") delta' delta;
      Alcotest.(check int) (name "fresh nodes") nodes' nodes)
    inputs

let test_empty_witness () =
  Alcotest.(check bool) "const false empty" true (witness (const false) = None);
  Alcotest.(check bool) "const true nonempty" false
    (witness (const true) = None);
  (* all(0) and complement(some(0)) intersected with some(0): empty *)
  let contradiction = inter (all_track 0) (complement (some_track 0)) in
  (match witness (inter (one_track 0) (some_track 1)) with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
    Alcotest.(check bool) "witness accepted" true
      (accepts (inter (one_track 0) (some_track 1)) w);
    Alcotest.(check bool) "witness sem" true (sem_one 0 w && sem_some 1 w));
  match witness contradiction with
  | None -> ()
  | Some _ -> Alcotest.fail "empty language must have no witness"

let test_witness_minimal () =
  (* The smallest tree with exactly one position marked 0 is a single leaf. *)
  match witness (one_track 0) with
  | Some (Leaf l) ->
    Alcotest.(check bool) "leaf labelled" true (label_mem 0 l)
  | Some t -> Alcotest.failf "expected a leaf witness, got %a" pp_tree t
  | None -> Alcotest.fail "expected a witness"

let test_inter_list () =
  let a = inter_list [ all_track 0; some_track 1; one_track 2 ] in
  let t = Node (label_of_bits [ (0, true); (1, true) ],
                Leaf (label_of_bits [ (0, true); (2, true) ]),
                Leaf (label_of_bits [ (0, true) ])) in
  Alcotest.(check bool) "inter_list accepts" true (accepts a t);
  let t_bad = Leaf (label_of_bits [ (1, true); (2, true) ]) in
  Alcotest.(check bool) "inter_list rejects" false (accepts a t_bad);
  Alcotest.(check bool) "empty inter_list accepts all" true
    (accepts (inter_list []) t_bad);
  Alcotest.(check bool) "empty union_list rejects all" false
    (accepts (union_list []) t_bad)

let test_run_states () =
  let a = all_track 0 in
  let good = Leaf [ 0 ] and bad = Leaf [] in
  Alcotest.(check bool) "accept state" true a.accept.(run a good);
  Alcotest.(check bool) "reject state" false a.accept.(run a bad)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "treeauto"
    [
      ("atoms", List.map qt prop_atoms);
      ("boolean", List.map qt prop_boolean);
      ( "minimize",
        List.map qt prop_minimize
        @ [
            Alcotest.test_case "same nodes as a cell-by-cell reference" `Quick
              test_minimize_reference;
          ] );
      ("asymmetric", List.map qt prop_asymmetric);
      ("project", List.map qt prop_project);
      ("large", List.map qt prop_large);
      ( "decision",
        [
          Alcotest.test_case "empty and witness" `Quick test_empty_witness;
          Alcotest.test_case "witness minimal" `Quick test_witness_minimal;
          Alcotest.test_case "inter_list" `Quick test_inter_list;
          Alcotest.test_case "run" `Quick test_run_states;
        ] );
    ]
