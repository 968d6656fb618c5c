(* Soundness of the configuration abstraction (Sections 3–4): every
   concrete configuration observed by the interpreter — the stack snapshot
   of an iteration — must satisfy the MSO [Configuration] formula under
   the label assignment it induces.  This is the load-bearing direction of
   the encoding: if a real stack ever violated the formula, the analyses
   could miss races and conflicts.

   We also check the schedule predicates: two concrete iterations that the
   dynamic oracle says are unordered must satisfy some Parallel divergence
   case, and ordered pairs some Ordered case. *)

let dir_to_int = function Ast.L -> 0 | Ast.R -> 1
let path_of p = List.map dir_to_int p

(* Heap shape -> the MSO model tree (labels are irrelevant to Mso_eval). *)
let rec shape_of_heap = function
  | Heap.Nil -> Treeauto.Leaf []
  | Heap.Node n -> Treeauto.Node ([], shape_of_heap n.left, shape_of_heap n.right)

(* The label assignment induced by a concrete stack: each record of call
   block [s] at node [u] puts [path u] into L_s; main's record is the
   root.  Condition labels are omitted (test programs with nil conditions
   only). *)
let assignment_of_event enc ns (e : Interp.event) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (call_id, path) ->
      let v = Encode.block_var enc ns call_id in
      let cur = try Hashtbl.find tbl v with Not_found -> [] in
      Hashtbl.replace tbl v (path_of path :: cur))
    e.ev_stack;
  Hashtbl.fold (fun v paths acc -> (v, paths) :: acc) tbl []

let ns1 = { Encode.tag = ""; cfg = 1 }
let ns2 = { Encode.tag = ""; cfg = 2 }

(* Fill every declared label with its assignment (empty if the stack does
   not touch it). *)
let full_assignment enc nss partial extra =
  List.concat_map
    (fun ns ->
      List.map
        (fun v ->
          match List.assoc_opt v partial with
          | Some paths -> (v, paths)
          | None -> (v, []))
        (Encode.labels enc ns))
    nss
  @ extra

let check_configurations src =
  let info = Programs.load src in
  let enc = Encode.make info in
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 5 do
    let heap = Heap.random ~size:8 rng in
    let shape = shape_of_heap heap in
    let { Interp.events; _ } = Interp.run info heap [] in
    List.iter
      (fun (e : Interp.event) ->
        let formula = Encode.configuration enc ns1 ~q:e.ev_block in
        let asg =
          full_assignment enc [ ns1 ]
            (assignment_of_event enc ns1 e)
            [ ("x1", [ path_of e.ev_path ]) ]
        in
        if not (Mso_eval.eval shape asg formula) then
          Alcotest.failf
            "concrete configuration for block %s at %a violates the \
             Configuration formula"
            (Blocks.block info e.ev_block).label Interp.pp_path e.ev_path)
      events
  done

let test_configuration_soundness_size_counting () =
  check_configurations Programs.size_counting

let test_configuration_soundness_seq () =
  check_configurations Programs.size_counting_seq

let test_configuration_soundness_mutation () =
  check_configurations Programs.tree_mutation_seq

(* corrupted stacks are rejected *)
let test_configuration_rejects_corruption () =
  let info = Programs.load Programs.size_counting in
  let enc = Encode.make info in
  let heap = Heap.complete_tree ~height:2 ~init:(fun _ -> []) in
  let shape = shape_of_heap heap in
  let { Interp.events; _ } = Interp.run info heap [] in
  (* take an event with a non-trivial stack and move one call record to a
     wrong node *)
  let e =
    List.find
      (fun (ev : Interp.event) -> List.length ev.ev_stack >= 3)
      events
  in
  let formula = Encode.configuration enc ns1 ~q:e.ev_block in
  let good = assignment_of_event enc ns1 e in
  (* corrupt: the main record claims a non-root node *)
  let bad =
    List.map
      (fun (v, paths) ->
        if v = Encode.block_var enc ns1 Encode.main_id then (v, [ [ 0 ] ])
        else (v, paths))
      good
  in
  let asg =
    full_assignment enc [ ns1 ] bad [ ("x1", [ path_of e.ev_path ]) ]
  in
  Alcotest.(check bool) "corrupted stack rejected" false
    (Mso_eval.eval shape asg formula)

(* schedule predicates agree with the dynamic oracle *)
let test_schedule_predicates () =
  let info = Programs.load Programs.size_counting in
  let enc = Encode.make info in
  let heap = Heap.complete_tree ~height:2 ~init:(fun _ -> []) in
  let shape = shape_of_heap heap in
  let { Interp.events; _ } = Interp.run info heap [] in
  let arr = Array.of_list events in
  let checked_par = ref 0 and checked_ord = ref 0 in
  Array.iteri
    (fun i e1 ->
      Array.iteri
        (fun j e2 ->
          if i < j && !checked_par + !checked_ord < 40 then begin
            let asg =
              full_assignment enc [ ns1; ns2 ]
                (assignment_of_event enc ns1 e1
                @ assignment_of_event enc ns2 e2)
                [
                  ("x1", [ path_of e1.Interp.ev_path ]);
                  ("x2", [ path_of e2.Interp.ev_path ]);
                ]
            in
            let holds cases =
              List.exists (fun f -> Mso_eval.eval shape asg f) cases
            in
            let q1 = e1.Interp.ev_block and q2 = e2.Interp.ev_block in
            if Interp.unordered info e1 e2 then begin
              incr checked_par;
              if
                not
                  (holds
                     (Encode.parallel_cases enc ns1 ns2 ~q1 ~q2))
              then
                Alcotest.failf
                  "concretely unordered pair (%s,%s) satisfies no Parallel \
                   case"
                  (Blocks.block info q1).label (Blocks.block info q2).label
            end
            else begin
              (* concretely ordered or branch-exclusive; if both occurred in
                 the same run they are schedule-ordered *)
              incr checked_ord;
              if
                not
                  (holds
                     (Encode.ordered_cases enc ns1 ns2 ~q1 ~q2)
                  || holds
                       (Encode.ordered_cases enc ns2 ns1 ~q1:q2 ~q2:q1))
              then
                Alcotest.failf
                  "concretely ordered pair (%s,%s) satisfies no Ordered case"
                  (Blocks.block info q1).label (Blocks.block info q2).label
            end
          end)
        arr)
    arr;
  Alcotest.(check bool) "exercised both kinds" true
    (!checked_par > 0 && !checked_ord > 0)

(* consistent condition sets: the enumeration is sound and minimal for a
   program with arithmetic conditions *)
let test_consistent_cond_sets () =
  let src =
    {|
F(n, k) {
  if (n == nil) {
    fnil: return
  } else {
    if (k > 0) {
      if (k - 5 > 0) {
        big: n.v = 2;
        return
      } else {
        small: n.v = 1;
        return
      }
    } else {
      neg: n.v = 0;
      return
    }
  }
}
Main(n) { m: F(n, 3); mret: return }
|}
  in
  let info = Programs.load src in
  let enc = Encode.make info in
  let assignments = Encode.consistent enc "F" in
  (* conditions: k > 0 (c1) and k - 5 > 0 (c2); the assignment c2 ∧ ¬c1 is
     inconsistent (k > 5 implies k > 0), so only 3 of 4 survive *)
  Alcotest.(check int) "three consistent assignments" 3
    (List.length assignments);
  List.iter
    (fun asg ->
      match List.sort compare asg with
      | [ (_, false); (_, true) ] ->
        (* must not be (¬(k>0), k-5>0) *)
        let pos = List.filter_map (fun (c, b) -> if b then Some c else None) asg in
        let neg = List.filter_map (fun (c, b) -> if not b then Some c else None) asg in
        (match (pos, neg) with
        | [ p ], [ n ] ->
          let atom_p = Symexec.cond_atom (Symexec.analyze info) p ~polarity:true in
          let atom_n = Symexec.cond_atom (Symexec.analyze info) n ~polarity:false in
          Alcotest.(check bool) "assignment is satisfiable" true
            (Lia.sat (List.filter_map Fun.id [ atom_p; atom_n ]))
        | _ -> ())
      | _ -> ())
    assignments

(* The encoder's memo: a repeated call returns the very formula the first
   one built, and that formula is the one a fresh encoder builds for the
   same arguments.  The calls are those the race and equivalence queries
   make for every dependent block pair of every bundled program, under
   both programs' namespace pairs (one also reversed, as the equivalence
   query orders the transformed program's cases) and one pair that mixes
   them: a memo key that dropped a namespace would hand one of them a
   formula built for another.  Each fresh encoder serves one namespace
   pair, so no two of its calls differ only there. *)
let ns_q1 = { Encode.tag = "'"; cfg = 1 }
let ns_q2 = { Encode.tag = "'"; cfg = 2 }

let test_memo () =
  List.iter
    (fun (name, src) ->
      let info = Programs.load src in
      let enc = Encode.make info in
      let noncalls = Blocks.all_noncalls info in
      let pairs =
        List.concat_map
          (fun q1 ->
            List.filter_map
              (fun q2 ->
                if Encode.may_conflict enc q1 q2 then Some (q1, q2) else None)
              noncalls)
          noncalls
      in
      List.iter
        (fun (na, nb) ->
          let fresh = Encode.make info in
          (* formulas compare by their skeletons, blind to slots *)
          let check what skeleton build =
            let f = build enc in
            if build enc != f then
              Alcotest.failf "%s: a repeated %s was built again" name what;
            if skeleton f <> skeleton (build fresh) then
              Alcotest.failf "%s: %s differs from a fresh encoder's" name what
          in
          let one = Skeleton.of_formula and all = List.map Skeleton.of_formula in
          List.iter
            (fun (q1, q2) ->
              check "configuration" one (fun e ->
                  Encode.configuration e na ~q:q1);
              check "configuration" one (fun e ->
                  Encode.configuration e nb ~q:q2);
              check "conflict" one (fun e ->
                  Encode.conflict_access e na nb ~q1 ~q2);
              check "dependence" one (fun e ->
                  Encode.dependence e na nb ~q1 ~q2);
              check "ordered cases" all (fun e ->
                  Encode.ordered_cases e na nb ~q1 ~q2);
              check "parallel cases" all (fun e ->
                  Encode.parallel_cases e na nb ~q1 ~q2))
            pairs)
        [ (ns1, ns2); (ns_q1, ns_q2); (ns_q2, ns_q1); (ns1, ns_q2) ])
    Programs.all_named

(* The static prefilter decides without building a formula: a pair may
   conflict exactly when its conflict formula is not [False], for every
   non-call pair of every bundled program, at either granularity. *)
let test_may_conflict () =
  List.iter
    (fun (name, src) ->
      let info = Programs.load src in
      let noncalls = Blocks.all_noncalls info in
      List.iter
        (fun field_sensitive ->
          let enc = Encode.make ~field_sensitive info in
          List.iter
            (fun q1 ->
              List.iter
                (fun q2 ->
                  let built =
                    match (Encode.conflict_access enc ns1 ns2 ~q1 ~q2).node with
                    | Mso.False -> false
                    | _ -> true
                  in
                  if Encode.may_conflict enc q1 q2 <> built then
                    Alcotest.failf "%s: may_conflict %s %s disagrees" name
                      (Blocks.block info q1).label (Blocks.block info q2).label)
                noncalls)
            noncalls)
        [ true; false ])
    Programs.all_named

(* The exported DataRace formula answers as the race query does: it is
   satisfiable for a racy program and [False] for a sequential one. *)
let test_data_race_export () =
  let export src = Encode.data_race (Encode.make (Programs.load src)) in
  let env, f = export Programs.racy_writers in
  Alcotest.(check bool) "racy_writers satisfiable" true (Mso.satisfiable env f);
  let _, f = export Programs.size_counting_seq in
  Alcotest.(check bool) "size_counting_seq is false" true
    (match f.node with Mso.False -> true | _ -> false)

(* [Mso.node] has exactly the constructors the encoder builds for one
   bundled program, plus [True] and [Sing], which [Mso] builds itself.
   [Skeleton.of_formula] names each node in a match with no wildcard, so
   a new constructor fails to compile there until it is named, and then
   fails this test unless the encoder builds it. *)
let constructors =
  [ "true"; "false"; "empty"; "sing"; "mem"; "eqpos"; "left"; "right";
    "root"; "isnil"; "agree"; "not"; "and"; "or"; "imp"; "iff"; "ex1";
    "all1" ]

let test_fragment () =
  let info = Programs.load Programs.racy_writers in
  let enc = Encode.make info in
  let built = Hashtbl.create 32 in
  (* an [agree] node's children are its pair lists, not formulas *)
  let rec skeleton (Skeleton.Node (tag, _, children)) =
    Hashtbl.replace built tag ();
    if tag <> "agree" then List.iter skeleton children
  in
  let walk f = skeleton (Skeleton.of_formula f) in
  walk (snd (Encode.data_race enc));
  let noncalls = Blocks.all_noncalls info in
  List.iter
    (fun q1 ->
      List.iter
        (fun q2 ->
          walk (Encode.configuration enc ns1 ~q:q1);
          walk (Encode.dependence enc ns1 ns2 ~q1 ~q2);
          List.iter walk (Encode.ordered_cases enc ns1 ns2 ~q1 ~q2);
          List.iter walk (Encode.parallel_cases enc ns1 ns2 ~q1 ~q2))
        noncalls)
    noncalls;
  let names = List.of_seq (Hashtbl.to_seq_keys built) @ [ "true"; "sing" ] in
  Alcotest.(check (list string)) "Mso.node is the built fragment"
    (List.sort String.compare constructors)
    (List.sort_uniq String.compare names)

let () =
  Alcotest.run "encode"
    [
      ( "configuration soundness",
        [
          Alcotest.test_case "size counting (parallel)" `Quick
            test_configuration_soundness_size_counting;
          Alcotest.test_case "size counting (sequential)" `Quick
            test_configuration_soundness_seq;
          Alcotest.test_case "tree mutation" `Quick
            test_configuration_soundness_mutation;
          Alcotest.test_case "rejects corruption" `Quick
            test_configuration_rejects_corruption;
        ] );
      ( "schedules",
        [ Alcotest.test_case "parallel/ordered cases" `Quick
            test_schedule_predicates ] );
      ( "conditions",
        [ Alcotest.test_case "consistent sets" `Quick
            test_consistent_cond_sets ] );
      ( "memo",
        [ Alcotest.test_case "built once per encoder"
            `Quick test_memo ] );
      ( "prefilter",
        [ Alcotest.test_case "matches the formula" `Quick
            test_may_conflict ] );
      ( "export",
        [ Alcotest.test_case "data race answers" `Quick
            test_data_race_export ] );
      ( "fragment",
        [ Alcotest.test_case "Mso.node is what the encoder builds" `Quick
            test_fragment ] );
    ]
