(* The self-validation layer and the fault-injection campaign.

   The campaign is the empirical argument behind the validation design:
   for every registered fault site and several seeds, an armed run must
   either mask the fault (same verdict class as the clean run, or a
   sound Unknown) or be caught by a validator at level Full.  A definite
   wrong verdict that passes validation — a silent wrong verdict — fails
   the suite.  Three sites are additionally pinned to concrete
   wrong-verdict demonstrations with validation off, proving the
   campaign exercises real corruption rather than no-ops. *)

let racy () = Programs.load Programs.racy_writers
let size_par () = Programs.load Programs.size_counting
let mut_seq () = Programs.load Programs.tree_mutation_seq
let mut_fused () = Programs.load Programs.tree_mutation_fused

let with_fault ~site ~seed f =
  Faults.arm ~site ~seed ();
  Fun.protect ~finally:Faults.disarm f

let race ~level ~timeout info =
  Validate.check_data_race ~level ~budget:(Engine.budget ~timeout ()) info

let equiv ~level ~timeout p p' map =
  Validate.check_equivalence ~level
    ~budget:(Engine.budget ~timeout ())
    p p' ~map

(* --- structural invariant checkers --- *)

(* A two-state automaton whose states are trivially mergeable: same
   acceptance, identical (hash-consed) transition rows.  Legal as a raw
   construction, but must be flagged after a minimizing stage. *)
let mergeable_automaton () =
  Treeauto.make ~nstates:2
    ~leaf:[ (Bdd.var 0, 1); (Bdd.top, 0) ]
    ~delta:(fun _ _ -> [ (Bdd.top, 0) ])
    ~accept:(fun _ -> false)

let test_check_automaton_stages () =
  let a = mergeable_automaton () in
  (match Validate.check_automaton "explore" a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "raw construction rejected: %s" e);
  (match Validate.check_automaton "minimize" a with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mergeable states not flagged after minimize");
  match Validate.check_automaton "minimize" (Treeauto.minimize a) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimized automaton rejected: %s" e

let test_check_stores () =
  (* exercise the stores a little first *)
  ignore (mergeable_automaton ());
  match Validate.check_stores () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "store integrity: %s" e

(* --- witness round-trip --- *)

let test_heap_of_witness_degenerate () =
  (match Analysis.heap_of_witness (Treeauto.Leaf [ 1; 3 ]) with
  | Heap.Nil -> ()
  | _ -> Alcotest.fail "single leaf should be the empty heap");
  match
    Analysis.heap_of_witness
      (Treeauto.Node ([], Treeauto.Leaf [], Treeauto.Leaf []))
  with
  | Heap.Node { Heap.left = Heap.Nil; right = Heap.Nil; _ } -> ()
  | _ -> Alcotest.fail "all-leaf fringe should be a single node"

let rec strip = function
  | Treeauto.Leaf _ -> Treeauto.Leaf []
  | Treeauto.Node (_, l, r) -> Treeauto.Node ([], strip l, strip r)

let witness_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let label =
          map (List.sort_uniq compare) (list_size (int_bound 3) (int_bound 7))
        in
        if n = 0 then map (fun l -> Treeauto.Leaf l) label
        else
          frequency
            [
              (1, map (fun l -> Treeauto.Leaf l) label);
              ( 3,
                map3
                  (fun l a b -> Treeauto.Node (l, a, b))
                  label
                  (self (n / 2))
                  (self (n / 2)) );
            ]))

let test_witness_heap_roundtrip =
  QCheck.Test.make ~count:200 ~name:"witness -> heap -> witness keeps shape"
    (QCheck.make witness_gen ~print:(Fmt.str "%a" Treeauto.pp_tree))
    (fun w ->
      Treeauto.equal_tree (strip w)
        (Analysis.witness_of_heap (Analysis.heap_of_witness w)))

(* --- three sites demonstrably flip verdicts with validation off --- *)

let expect_wrong_race_free ~site ~seed =
  with_fault ~site ~seed (fun () ->
      match fst (race ~level:Validate.Off ~timeout:15. (racy ())) with
      | Analysis.Race_free -> ()
      | Analysis.Race _ ->
        Alcotest.failf "%s:%d no longer flips the racy verdict" site seed
      | Analysis.Race_unknown _ ->
        Alcotest.failf "%s:%d diverged instead of flipping the verdict" site
          seed)

(* Caught: the wrong verdict's line carries the failed-validation suffix
   and exit code 4, as every front end prints it. *)
let caught_at_full check ~site ~seed ~verdict =
  with_fault ~site ~seed (fun () ->
      Alcotest.(check (pair string int))
        (Fmt.str "%s:%d caught at full" site seed)
        (verdict ^ "  [verdict FAILED self-validation]", 4)
        (check ()))

let test_branch_flip_wrong () =
  expect_wrong_race_free ~site:"bdd.branch_flip" ~seed:1;
  caught_at_full ~site:"bdd.branch_flip" ~seed:1 ~verdict:"data-race-free"
    (fun () ->
      Validate.render Analysis.render_race
        (race ~level:Validate.Full ~timeout:15. (racy ())))

(* The seed decides which explored states get their acceptance flipped,
   so the states each construction explores decide whether a seed flips
   the verdict.  Since atoms over first-order variables are built
   restricted to singletons, seed 1's flips leave the verdict DATA RACE
   (full validation still fails the run); seed 2 flips it to
   data-race-free before and after that change. *)
let test_swap_final_wrong () =
  expect_wrong_race_free ~site:"treeauto.swap_final" ~seed:2;
  caught_at_full ~site:"treeauto.swap_final" ~seed:2 ~verdict:"data-race-free"
    (fun () ->
      Validate.render Analysis.render_race
        (race ~level:Validate.Full ~timeout:15. (racy ())))

let test_projection_shift_wrong () =
  with_fault ~site:"mso.projection_shift" ~seed:1 (fun () ->
      match
        fst
          (equiv ~level:Validate.Off ~timeout:30. (mut_seq ()) (mut_fused ())
             Programs.tree_mutation_map)
      with
      | Analysis.Not_equivalent _ -> ()
      | _ ->
        Alcotest.fail
          "mso.projection_shift:1 no longer flips the fusion verdict");
  caught_at_full ~site:"mso.projection_shift" ~seed:1 ~verdict:"NOT equivalent"
    (fun () ->
      Validate.render Analysis.render_equiv
        (equiv ~level:Validate.Full ~timeout:30. (mut_seq ()) (mut_fused ())
           Programs.tree_mutation_map))

(* --- the campaign: every site x 3 seeds x 3 queries, level Full --- *)

type outcome =
  | Masked  (** verdict unchanged, or a sound Unknown / refusal *)
  | Caught  (** wrong verdict, flagged by a validator *)
  | Silent of string  (** wrong verdict that passed validation: a bug *)

let classify_race expect (result, report) =
  match (result, expect) with
  | Analysis.Race_unknown _, _ -> Masked
  | Analysis.Race _, `Race | Analysis.Race_free, `Race_free -> Masked
  | (Analysis.Race _ | Analysis.Race_free), _ ->
    if Validate.ok report then Silent "wrong race verdict" else Caught

let classify_equiv (result, report) =
  match result with
  | Analysis.Equiv_unknown _ -> Masked
  | Analysis.Equivalent _ -> Masked (* the clean verdict *)
  (* a failed bisimulation refuses to certify without claiming a
     counterexample — the conservative direction, like Unknown *)
  | Analysis.Bisimulation_failed _ -> Masked
  | Analysis.Not_equivalent _ ->
    if Validate.ok report then Silent "wrong inequivalence verdict"
    else Caught

let campaign_queries =
  [
    ( "race racy_writers",
      fun () -> classify_race `Race (race ~level:Validate.Full ~timeout:4. (racy ())) );
    ( "race size_counting",
      fun () ->
        classify_race `Race_free
          (race ~level:Validate.Full ~timeout:4. (size_par ())) );
    ( "equiv tree_mutation",
      fun () ->
        classify_equiv
          (equiv ~level:Validate.Full ~timeout:4. (mut_seq ()) (mut_fused ())
             Programs.tree_mutation_map) );
  ]

let expected_sites =
  [ "arith.coeff_perturb"; "bdd.branch_flip"; "mso.projection_shift";
    "treeauto.drop_transition"; "treeauto.swap_final" ]

let test_all_sites_registered () =
  let names = List.map fst (Faults.all_sites ()) in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " registered") true (List.mem s names))
    expected_sites

let test_campaign () =
  let masked = ref 0 and caught = ref 0 and silent = ref [] in
  List.iter
    (fun (site, _descr) ->
      List.iter
        (fun seed ->
          List.iter
            (fun (qname, query) ->
              with_fault ~site ~seed (fun () ->
                  match query () with
                  | Masked -> incr masked
                  | Caught -> incr caught
                  | Silent what ->
                    silent := Fmt.str "%s:%d %s: %s" site seed qname what
                              :: !silent))
            campaign_queries)
        [ 1; 2; 3 ])
    (Faults.all_sites ());
  Fmt.epr "campaign: %d masked, %d caught, %d silent@." !masked !caught
    (List.length !silent);
  if !silent <> [] then
    Alcotest.failf "silent wrong verdicts:@.%a"
      Fmt.(list ~sep:cut string)
      !silent;
  Alcotest.(check bool) "some faults were caught by validators" true
    (!caught > 0)

(* --- validation never flips a verdict --- *)

let test_report_only () =
  (* clean runs: every check passes and the verdict is the seed verdict *)
  let result, report = race ~level:Validate.Full ~timeout:30. (racy ()) in
  (match result with
  | Analysis.Race _ -> ()
  | _ -> Alcotest.fail "racy_writers verdict changed under validation");
  Alcotest.(check bool) "clean race report ok" true (Validate.ok report);
  let result, report =
    equiv ~level:Validate.Full ~timeout:30. (mut_seq ()) (mut_fused ())
      Programs.tree_mutation_map
  in
  (match result with
  | Analysis.Equivalent _ -> ()
  | _ -> Alcotest.fail "tree_mutation verdict changed under validation");
  Alcotest.(check bool) "clean equiv report ok" true (Validate.ok report);
  Alcotest.(check bool) "full level recorded" true
    (report.Validate.vlevel = Validate.Full)

let () =
  Alcotest.run "validate"
    [
      ( "invariant checkers",
        [
          Alcotest.test_case "check_automaton per stage" `Quick
            test_check_automaton_stages;
          Alcotest.test_case "store integrity" `Quick test_check_stores;
        ] );
      ( "witness round-trip",
        [
          Alcotest.test_case "degenerate witnesses" `Quick
            test_heap_of_witness_degenerate;
          QCheck_alcotest.to_alcotest test_witness_heap_roundtrip;
        ] );
      ( "wrong verdicts with validation off",
        [
          Alcotest.test_case "bdd.branch_flip flips racy_writers" `Quick
            test_branch_flip_wrong;
          Alcotest.test_case "treeauto.swap_final flips racy_writers" `Quick
            test_swap_final_wrong;
          Alcotest.test_case "mso.projection_shift flips tree_mutation"
            `Quick test_projection_shift_wrong;
        ] );
      ( "fault campaign",
        [
          Alcotest.test_case "all sites registered" `Quick
            test_all_sites_registered;
          Alcotest.test_case "every site x seed masked or caught" `Quick
            test_campaign;
        ] );
      ( "validation is observational",
        [ Alcotest.test_case "clean verdicts unchanged" `Quick test_report_only ] );
    ]
