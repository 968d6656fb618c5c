(* End-to-end verification tests: the paper's evaluation queries (Section
   5) and cross-validation of every static verdict against the concrete
   interpreter.  The heavyweight case studies (CSS fusion, cycletree) run
   only when RETREET_SLOW_TESTS is set; the benchmark harness exercises
   them in full. *)

let slow = Sys.getenv_opt "RETREET_SLOW_TESTS" <> None

(* --- E3: the running example is data-race-free --- *)

let test_running_example_race_free () =
  let info = Programs.load Programs.size_counting in
  match Analysis.check_data_race info with
  | Analysis.Race_free -> ()
  | Analysis.Race cx ->
    Alcotest.failf "unexpected race: %a"
      (Analysis.pp_counterexample info) cx
  | Analysis.Race_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- a racy program is detected, and the counterexample is real --- *)

let test_racy_program_detected () =
  let info = Programs.load Programs.racy_writers in
  match Analysis.check_data_race info with
  | Analysis.Race_free -> Alcotest.fail "race missed"
  | Analysis.Race cx ->
    Alcotest.(check bool) "counterexample replays concretely" true
      (Analysis.replay_race info cx)
  | Analysis.Race_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- sequential variant of the racy program is race-free --- *)

let test_sequentialized_not_racy () =
  let seq =
    {|
A(n) {
  if (n == nil) { anil: return } else {
    aset: n.v = 1; a1: A(n.l); a2: A(n.r); return }
}
B(n) {
  if (n == nil) { bnil: return } else {
    bset: n.v = 2; b1: B(n.l); b2: B(n.r); return }
}
Main(n) { m1: A(n); m2: B(n); mret: return }
|}
  in
  match Analysis.check_data_race (Programs.load seq) with
  | Analysis.Race_free -> ()
  | Analysis.Race _ -> Alcotest.fail "sequential composition cannot race"
  | Analysis.Race_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- a write guarded by a system the Omega test cannot decide --- *)

(* [aset] runs only where 2x - 3y = 1 and x >= 20, whose smallest model
   (x = 20, y = 13) lies outside any small search box, and [B] writes the
   same field everywhere, in parallel.  An undecided condition system must
   keep its path-condition assignment, so the race is found. *)
let test_undecided_guard_racy () =
  let src =
    {|
A(n) {
  if (n == nil) { anil: return } else {
    a1: A(n.l); a2: A(n.r);
    if (n.x + n.x - n.y - n.y - n.y > 0) {
      if (n.y + n.y + n.y - n.x - n.x + 2 > 0) {
        if (n.x - 19 > 0) { aset: n.v = 1; return } else { return }
      } else { return }
    } else { return }
  }
}
B(n) {
  if (n == nil) { bnil: return } else {
    bset: n.v = 2; b1: B(n.l); b2: B(n.r); return }
}
Main(n) { { m1: A(n) || m2: B(n) }; mret: return }
|}
  in
  match Analysis.check_data_race (Programs.load src) with
  | Analysis.Race _ -> ()
  | Analysis.Race_free -> Alcotest.fail "race behind an undecided guard missed"
  | Analysis.Race_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- bisimulation --- *)

(* An obviously wrong map is rejected; the right ones are checked by
   [test_table1_maps] below. *)
let test_bisimulation () =
  let p = Programs.load Programs.size_counting_seq in
  let fused = Programs.load Programs.size_counting_fused in
  match
    Analysis.check_bisimulation p fused
      ~map:[ ("s0", "fret"); ("s3", "fnil") ]
  with
  | Analysis.Bisimilar _ -> Alcotest.fail "bogus map accepted"
  | Analysis.Not_bisimilar _ -> ()

(* Every Table 1 fusion pairing with its shared block map: the
   bisimulation is found, with the pinned number of related call pairs.
   Builds no automaton, so E5 and E6 are cheap here. *)
let test_table1_maps () =
  List.iter
    (fun (name, seq, fused, map, pairs) ->
      match
        Analysis.check_bisimulation (Programs.load seq) (Programs.load fused)
          ~map
      with
      | Analysis.Bisimilar r ->
        Alcotest.(check int) (name ^ " call pairs") pairs (List.length r)
      | Analysis.Not_bisimilar why -> Alcotest.failf "%s: %s" name why)
    Programs.
      [
        ("E1", size_counting_seq, size_counting_fused, size_counting_map, 7);
        ("E2", size_counting_seq, size_counting_fused_invalid,
         size_counting_map, 7);
        ("E4", tree_mutation_seq, tree_mutation_fused, tree_mutation_map, 7);
        ("E5", css_minification_seq, css_minification_fused,
         css_minification_map, 10);
        ("E6", cycletree_seq, cycletree_fused, cycletree_map, 27);
      ]

(* --- E1/E2: fusion of the mutually recursive size counting --- *)

let test_fusion_valid () =
  let p = Programs.load Programs.size_counting_seq in
  let fused = Programs.load Programs.size_counting_fused in
  match Analysis.check_equivalence p fused ~map:Programs.size_counting_map with
  | Analysis.Equivalent _ -> ()
  | Analysis.Not_equivalent cx ->
    Alcotest.failf "valid fusion rejected: %a"
      (Analysis.pp_counterexample p) cx
  | Analysis.Bisimulation_failed why -> Alcotest.failf "bisim: %s" why
  | Analysis.Equiv_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

let test_fusion_invalid () =
  let p = Programs.load Programs.size_counting_seq in
  let invalid = Programs.load Programs.size_counting_fused_invalid in
  match
    Analysis.check_equivalence p invalid ~map:Programs.size_counting_map
  with
  | Analysis.Equivalent _ -> Alcotest.fail "invalid fusion accepted"
  | Analysis.Not_equivalent cx ->
    Alcotest.(check bool) "counterexample is a real difference" true
      (Analysis.replay_equivalence p invalid cx)
  | Analysis.Bisimulation_failed why -> Alcotest.failf "bisim: %s" why
  | Analysis.Equiv_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- E4: tree mutation fusion --- *)

let test_tree_mutation_fusion () =
  let p = Programs.load Programs.tree_mutation_seq in
  let fused = Programs.load Programs.tree_mutation_fused in
  match Analysis.check_equivalence p fused ~map:Programs.tree_mutation_map with
  | Analysis.Equivalent _ -> ()
  | Analysis.Not_equivalent cx ->
    Alcotest.failf "mutation fusion rejected: %a"
      (Analysis.pp_counterexample p) cx
  | Analysis.Bisimulation_failed why -> Alcotest.failf "bisim: %s" why
  | Analysis.Equiv_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- automatic fusion (Transform) verified end to end --- *)

let test_transform_fuse_verified () =
  let p = Programs.load Programs.tree_mutation_seq in
  match Transform.fuse p.prog [ "Swap"; "IncrmLeft" ] with
  | Error e -> Alcotest.failf "transform: %s" e
  | Ok (prog', map) -> (
    let fused = Wf.check_exn prog' in
    match Analysis.check_equivalence p fused ~map with
    | Analysis.Equivalent _ -> ()
    | Analysis.Not_equivalent _ -> Alcotest.fail "generated fusion rejected"
    | Analysis.Bisimulation_failed why -> Alcotest.failf "bisim: %s" why
    | Analysis.Equiv_unknown _ ->
      Alcotest.fail "unexpected Unknown under unlimited budget")

(* --- an INVALID transformation proposal is caught --- *)

let test_order_breaking_fusion_rejected () =
  (* A fused variant of the tree-mutation pipeline that performs the
     increment BEFORE the recursive calls: breaks the child-to-parent
     read-after-write dependence on v. *)
  let bad =
    {|
Fused(n) {
  if (n == nil) {
    wnil: return
  } else {
    if (n.r == nil) {
      ileaf: n.v = 1;
      return
    } else {
      istep: n.v = n.r.v + 1;
      return
    };
    w1: Fused(n.l);
    w2: Fused(n.r);
    wset: n.swapped = 1;
    return
  }
}

Main(n) {
  m1: Fused(n);
  mret: return
}
|}
  in
  let p = Programs.load Programs.tree_mutation_seq in
  let fused = Programs.load bad in
  match Analysis.check_equivalence p fused ~map:Programs.tree_mutation_map with
  | Analysis.Equivalent _ -> Alcotest.fail "order-breaking fusion accepted"
  | Analysis.Not_equivalent cx ->
    Alcotest.(check bool) "difference replays" true
      (Analysis.replay_equivalence p fused cx)
  | Analysis.Bisimulation_failed _ ->
    (* also an acceptable rejection *)
    ()
  | Analysis.Equiv_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- E5: CSS fusion (slow) --- *)

let test_css_fusion () =
  let p = Programs.load Programs.css_minification_seq in
  let fused = Programs.load Programs.css_minification_fused in
  match
    Analysis.check_equivalence p fused ~map:Programs.css_minification_map
  with
  | Analysis.Equivalent _ -> ()
  | Analysis.Not_equivalent cx ->
    Alcotest.failf "css fusion rejected: %a" (Analysis.pp_counterexample p) cx
  | Analysis.Bisimulation_failed why -> Alcotest.failf "bisim: %s" why
  | Analysis.Equiv_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- E7: cycletree parallelization races (slow) --- *)

let test_cycletree_parallel_racy () =
  let par = Programs.load Programs.cycletree_par in
  match Analysis.check_data_race par with
  | Analysis.Race_free -> Alcotest.fail "cycletree race missed"
  | Analysis.Race cx ->
    let l1 = (Blocks.block par cx.cx_q1).label
    and l2 = (Blocks.block par cx.cx_q2).label in
    Alcotest.(check bool) "race involves the numbering write" true
      (List.mem l1 [ "rmset"; "pmset"; "imset"; "tmset" ]
      || List.mem l2 [ "rmset"; "pmset"; "imset"; "tmset" ]);
    Alcotest.(check bool) "counterexample replays" true
      (Analysis.replay_race par cx)
  | Analysis.Race_unknown _ ->
    Alcotest.fail "unexpected Unknown under unlimited budget"

(* --- every static race verdict agrees with the dynamic oracle --- *)

let test_cross_validation_races () =
  let rng = Random.State.make [| 2024 |] in
  List.iter
    (fun (name, src) ->
      let info = Programs.load src in
      let static_racy =
        match Analysis.check_data_race info with
        | Analysis.Race_free -> false
        | Analysis.Race _ -> true
        | Analysis.Race_unknown _ ->
          Alcotest.fail "unexpected Unknown under unlimited budget"
      in
      (* the static analysis is sound: if it says race-free, no concrete
         execution may exhibit an unordered conflicting pair *)
      if not static_racy then
        for _ = 1 to 10 do
          let t = Heap.random ~size:10 rng in
          let { Interp.events; _ } = Interp.run info t [] in
          if Interp.races info events <> [] then
            Alcotest.failf "%s: dynamic race under a race-free verdict" name
        done)
    [
      ("size_counting", Programs.size_counting);
      ("size_counting_seq", Programs.size_counting_seq);
      ("tree_mutation_seq", Programs.tree_mutation_seq);
    ]

(* race-free verdicts imply schedule-determinism under systematic
   interleaving exploration *)
let test_cross_validation_schedules () =
  let rng = Random.State.make [| 4096 |] in
  List.iter
    (fun (name, src) ->
      let info = Programs.load src in
      match Analysis.check_data_race info with
      | Analysis.Race _ -> ()
      | Analysis.Race_unknown _ ->
        Alcotest.fail "unexpected Unknown under unlimited budget"
      | Analysis.Race_free ->
        for _ = 1 to 3 do
          let base = Heap.random ~size:7 rng in
          if not (Explore.deterministic ~limit:300 info (fun () -> Heap.copy base) [])
          then
            Alcotest.failf
              "%s: race-free verdict but schedule-dependent outcome" name
        done)
    [ ("size_counting", Programs.size_counting) ];
  (* and the racy program is schedule-dependent *)
  let racy = Programs.load Programs.racy_writers in
  let base = Heap.complete_tree ~height:1 ~init:(fun _ -> []) in
  Alcotest.(check bool) "racy program is schedule-dependent" false
    (Explore.deterministic ~limit:300 racy (fun () -> Heap.copy base) [])

let () =
  let maybe_slow name f =
    if slow then [ Alcotest.test_case name `Slow f ] else []
  in
  Alcotest.run "analysis"
    [
      ( "races",
        [
          Alcotest.test_case "running example race-free" `Quick
            test_running_example_race_free;
          Alcotest.test_case "racy program detected" `Quick
            test_racy_program_detected;
          Alcotest.test_case "sequentialized not racy" `Quick
            test_sequentialized_not_racy;
          Alcotest.test_case "race behind an undecided guard" `Quick
            test_undecided_guard_racy;
        ]
        @ maybe_slow "cycletree parallelization racy"
            test_cycletree_parallel_racy );
      ( "bisimulation",
        [
          Alcotest.test_case "size counting" `Quick test_bisimulation;
          Alcotest.test_case "Table 1 block maps" `Quick test_table1_maps;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fusion valid" `Quick test_fusion_valid;
          Alcotest.test_case "fusion invalid" `Quick test_fusion_invalid;
          Alcotest.test_case "tree mutation fusion" `Quick
            test_tree_mutation_fusion;
          Alcotest.test_case "generated fusion verified" `Quick
            test_transform_fuse_verified;
          Alcotest.test_case "order-breaking fusion rejected" `Quick
            test_order_breaking_fusion_rejected;
        ]
        @ maybe_slow "css fusion" test_css_fusion );
      ( "cross-validation",
        [
          Alcotest.test_case "races" `Quick test_cross_validation_races;
          Alcotest.test_case "schedules" `Quick
            test_cross_validation_schedules;
        ] );
    ]
