(* Resource-governance tests: the Engine budget mechanics themselves, and
   the three-valued verdict contract of the analysis layer — a generous
   budget never changes a seed verdict, a starved budget degrades to
   Unknown but never to a *wrong* definite answer, and partial progress
   grows monotonically with the step budget (step budgets are
   deterministic, unlike wall-clock ones). *)

let slow = Sys.getenv_opt "RETREET_SLOW_TESTS" <> None

(* --- budget mechanics --- *)

let test_step_budget () =
  match
    Engine.with_budget
      (Engine.budget ~max_steps:5 ())
      (fun () ->
        for _ = 1 to 100 do
          Engine.tick ()
        done)
  with
  | Ok () -> Alcotest.fail "step budget not enforced"
  | Error r ->
    Alcotest.(check bool) "exhausted resource is Solver_steps" true
      (r.Engine.resource = Engine.Solver_steps);
    Alcotest.(check int) "limit recorded" 5 r.Engine.limit

let test_unlimited_budget () =
  match
    Engine.with_budget Engine.unlimited (fun () ->
        for _ = 1 to 1000 do
          Engine.tick ();
          Engine.note_bdd_node ();
          Engine.check_states 1000
        done;
        42)
  with
  | Ok n -> Alcotest.(check int) "value returned" 42 n
  | Error _ -> Alcotest.fail "unlimited budget exhausted?!"

let test_state_cap () =
  match
    Engine.with_budget
      (Engine.budget ~max_states:10 ())
      (fun () -> Engine.check_states 11)
  with
  | Ok () -> Alcotest.fail "state cap not enforced"
  | Error r ->
    Alcotest.(check bool) "exhausted resource is Auto_states" true
      (r.Engine.resource = Engine.Auto_states)

let test_nested_inherits_parent () =
  (* an [unlimited] child extent still runs under the enclosing caps *)
  let outer =
    Engine.with_budget
      (Engine.budget ~max_steps:10 ())
      (fun () ->
        Engine.with_budget Engine.unlimited (fun () ->
            for _ = 1 to 100 do
              Engine.tick ()
            done))
  in
  match outer with
  | Ok (Error r) ->
    Alcotest.(check bool) "inner extent hit the outer step cap" true
      (r.Engine.resource = Engine.Solver_steps)
  | Ok (Ok ()) -> Alcotest.fail "outer cap not inherited by inner extent"
  | Error _ -> Alcotest.fail "cap hit outside the inner extent"

let test_stack_overflow_converted () =
  match
    Engine.with_budget Engine.unlimited (fun () ->
        let rec f x = 1 + f (x + 1) in
        f 0)
  with
  | Ok _ -> Alcotest.fail "infinite recursion returned?!"
  | Error r ->
    Alcotest.(check bool) "Stack_overflow became Call_stack" true
      (r.Engine.resource = Engine.Call_stack)

(* --- (a) a generous budget never changes a seed verdict --- *)

let generous = Engine.budget ~timeout:300. ()

let test_generous_preserves_verdicts () =
  let seq = Programs.load Programs.size_counting_seq in
  (match
     Analysis.check_equivalence ~budget:generous seq
       (Programs.load Programs.size_counting_fused)
       ~map:Programs.size_counting_map
   with
  | Analysis.Equivalent _ -> ()
  | _ -> Alcotest.fail "E1 verdict changed under a generous budget");
  (match
     Analysis.check_equivalence ~budget:generous seq
       (Programs.load Programs.size_counting_fused_invalid)
       ~map:Programs.size_counting_map
   with
  | Analysis.Not_equivalent _ -> ()
  | _ -> Alcotest.fail "E2 verdict changed under a generous budget");
  (match
     Analysis.check_data_race ~budget:generous
       (Programs.load Programs.size_counting)
   with
  | Analysis.Race_free -> ()
  | _ -> Alcotest.fail "E3 verdict changed under a generous budget");
  match
    Analysis.check_equivalence ~budget:generous
      (Programs.load Programs.tree_mutation_seq)
      (Programs.load Programs.tree_mutation_fused)
      ~map:Programs.tree_mutation_map
  with
  | Analysis.Equivalent _ -> ()
  | _ -> Alcotest.fail "E4 verdict changed under a generous budget"

let test_generous_preserves_verdicts_slow () =
  (match
     Analysis.check_equivalence ~budget:generous
       (Programs.load Programs.css_minification_seq)
       (Programs.load Programs.css_minification_fused)
       ~map:Programs.css_minification_map
   with
  | Analysis.Equivalent _ -> ()
  | _ -> Alcotest.fail "E5 verdict changed under a generous budget");
  match
    Analysis.check_data_race ~budget:generous
      (Programs.load Programs.cycletree_par)
  with
  | Analysis.Race _ -> ()
  | _ -> Alcotest.fail "E7 verdict changed under a generous budget"

(* --- (b) a starved budget yields Unknown, never a wrong definite --- *)

let test_tiny_budget_unknown_not_wrong () =
  let p = Programs.load Programs.css_minification_seq in
  let p' = Programs.load Programs.css_minification_fused in
  match
    Analysis.check_equivalence
      ~budget:(Engine.budget ~max_steps:50 ())
      p p' ~map:Programs.css_minification_map
  with
  | Analysis.Equiv_unknown u ->
    Alcotest.(check bool) "pairs_done <= pairs_total" true
      (u.pairs_done <= u.pairs_total)
  | Analysis.Equivalent _ ->
    (* fine in principle (the budget sufficed), wrong for 50 steps *)
    Alcotest.fail "E5 discharged in 50 solver steps?!"
  | Analysis.Not_equivalent _ | Analysis.Bisimulation_failed _ ->
    Alcotest.fail "starved budget produced a wrong definite verdict"

(* --- (c) pairs_done grows monotonically with the step budget --- *)

let test_progress_monotone () =
  let p = Programs.load Programs.css_minification_seq in
  let p' = Programs.load Programs.css_minification_fused in
  let budgets = [ 2_000; 16_000; 64_000 ] in
  let prev = ref (-1) in
  List.iter
    (fun steps ->
      match
        Analysis.check_equivalence
          ~budget:(Engine.budget ~max_steps:steps ())
          p p' ~map:Programs.css_minification_map
      with
      | Analysis.Equiv_unknown u ->
        Alcotest.(check bool)
          (Printf.sprintf "incomplete at %d steps: pairs_done < pairs_total"
             steps)
          true
          (u.pairs_done < u.pairs_total);
        Alcotest.(check bool)
          (Printf.sprintf "progress non-decreasing at %d steps" steps)
          true (u.pairs_done >= !prev);
        prev := u.pairs_done
      | Analysis.Equivalent _ ->
        (* enough budget: progress reached the total *)
        prev := max_int
      | Analysis.Not_equivalent _ | Analysis.Bisimulation_failed _ ->
        Alcotest.fail "wrong definite verdict under a step budget")
    budgets

(* --- random budgets keep verdicts sound (QCheck) --- *)

let test_random_budgets_sound =
  QCheck.Test.make ~count:6 ~name:"random step budgets never flip verdicts"
    QCheck.(int_range 1 20_000)
    (fun steps ->
      let budget = Engine.budget ~max_steps:steps () in
      (match
         Analysis.check_data_race ~budget
           (Programs.load Programs.size_counting)
       with
      | Analysis.Race _ -> QCheck.Test.fail_report "E3 reported a race"
      | Analysis.Race_free | Analysis.Race_unknown _ -> ());
      (match
         Analysis.check_equivalence ~budget
           (Programs.load Programs.size_counting_seq)
           (Programs.load Programs.size_counting_fused_invalid)
           ~map:Programs.size_counting_map
       with
      | Analysis.Equivalent _ ->
        QCheck.Test.fail_report "E2 accepted the invalid fusion"
      | Analysis.Not_equivalent _ | Analysis.Bisimulation_failed _
      | Analysis.Equiv_unknown _ -> ());
      true)

(* --- fault-injector mechanics (the verdict campaign is in
   test_validate) --- *)

let test_site =
  Faults.register ~name:"test.engine_site" ~descr:"test-only site" ()

let fire_positions n =
  let fired = ref [] in
  for i = 0 to n - 1 do
    if Faults.fire test_site then fired := i :: !fired
  done;
  List.rev !fired

let test_faults_deterministic () =
  Faults.arm ~site:"test.engine_site" ~seed:7 ();
  let a = fire_positions 200 in
  Faults.arm ~site:"test.engine_site" ~seed:7 ();
  let b = fire_positions 200 in
  let count = Faults.fired_count ~site:"test.engine_site" in
  Faults.disarm ();
  Alcotest.(check bool) "some hits fire" true (a <> []);
  Alcotest.(check (list int)) "same seed, same positions" a b;
  Alcotest.(check int) "fired_count agrees" (List.length b) count;
  Faults.arm ~site:"test.engine_site" ~seed:8 ();
  let c = fire_positions 200 in
  Faults.disarm ();
  Alcotest.(check bool) "different seed, different positions" true (a <> c)

let test_faults_disarmed_free () =
  Faults.disarm ();
  Alcotest.(check bool) "nothing armed" true (Faults.armed () = None);
  Alcotest.(check (list int)) "disarmed never fires" [] (fire_positions 1000)

let test_faults_bad_arm () =
  (match Faults.arm ~site:"no.such.site" ~seed:1 () with
  | () -> Alcotest.fail "unknown site accepted"
  | exception Invalid_argument _ -> ());
  match Faults.arm ~period:0 ~site:"test.engine_site" ~seed:1 () with
  | () ->
    Faults.disarm ();
    Alcotest.fail "non-positive period accepted"
  | exception Invalid_argument _ -> ()

(* An armed fault must never escape the budget discipline: a corrupted
   run that diverges still degrades to a typed Unknown. *)
let test_faulted_run_stays_governed () =
  Faults.arm ~site:"treeauto.drop_transition" ~seed:1 ();
  Fun.protect ~finally:Faults.disarm (fun () ->
      match
        Analysis.check_data_race
          ~budget:(Engine.budget ~timeout:5. ~max_steps:20_000 ())
          (Programs.load Programs.size_counting)
      with
      | Analysis.Race_free | Analysis.Race _ | Analysis.Race_unknown _ -> ())

let () =
  let maybe_slow name f =
    if slow then [ Alcotest.test_case name `Slow f ] else []
  in
  Alcotest.run "engine"
    [
      ( "budget mechanics",
        [
          Alcotest.test_case "step budget enforced" `Quick test_step_budget;
          Alcotest.test_case "unlimited is free" `Quick test_unlimited_budget;
          Alcotest.test_case "state cap enforced" `Quick test_state_cap;
          Alcotest.test_case "nested extent inherits caps" `Quick
            test_nested_inherits_parent;
          Alcotest.test_case "stack overflow degraded" `Quick
            test_stack_overflow_converted;
        ] );
      ( "verdict preservation",
        [
          Alcotest.test_case "generous budget, E1-E4" `Quick
            test_generous_preserves_verdicts;
        ]
        @ maybe_slow "generous budget, E5/E7"
            test_generous_preserves_verdicts_slow );
      ( "graceful degradation",
        [
          Alcotest.test_case "starved budget yields Unknown" `Quick
            test_tiny_budget_unknown_not_wrong;
          Alcotest.test_case "progress monotone in budget" `Quick
            test_progress_monotone;
          QCheck_alcotest.to_alcotest test_random_budgets_sound;
        ] );
      ( "fault injector",
        [
          Alcotest.test_case "deterministic firing" `Quick
            test_faults_deterministic;
          Alcotest.test_case "disarmed is inert" `Quick
            test_faults_disarmed_free;
          Alcotest.test_case "bad arm rejected" `Quick test_faults_bad_arm;
          Alcotest.test_case "faulted run stays budget-governed" `Quick
            test_faulted_run_stays_governed;
        ] );
    ]
