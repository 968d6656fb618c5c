(* Golden verdicts for every bundled program.

   The table pins, for each program under [programs/], the data-race
   verdict AND the exit code a client sees — rendered through
   {!Validate.render} of {!Analysis.render_race}, the single rendering
   shared by [retreet race], [retreet batch] and the daemon, so these
   goldens cover the presentation contract as well as the solver.  Three
   cheap equivalence queries of Table 1 (E1, E2, E4, taken by id from
   {!Programs.table1}) are pinned the same way, through
   {!Analysis.render_equiv}.  A solver change that
   flips any of these verdicts, or degrades one to Unknown under the
   generous budget below, fails loudly here instead of surfacing
   downstream. *)

(* Decides every bundled query in well under a second; a regression that
   blows past it degrades to Unknown, which the table treats as a
   failure (goldens must stay decided). *)
let budget =
  Engine.budget ~max_steps:100_000 ~max_bdd_nodes:2_000_000
    ~max_states:20_000 ()

let race_table =
  [
    ("size_counting", Programs.size_counting, `Free);
    ("size_counting_seq", Programs.size_counting_seq, `Free);
    ("size_counting_fused", Programs.size_counting_fused, `Free);
    ("size_counting_fused_invalid", Programs.size_counting_fused_invalid,
     `Free);
    ("tree_mutation_seq", Programs.tree_mutation_seq, `Free);
    ("tree_mutation_fused", Programs.tree_mutation_fused, `Free);
    ("css_minification_seq", Programs.css_minification_seq, `Free);
    ("css_minification_fused", Programs.css_minification_fused, `Free);
    ("cycletree_seq", Programs.cycletree_seq, `Free);
    ("cycletree_fused", Programs.cycletree_fused, `Free);
    ("cycletree_par", Programs.cycletree_par, `Race);
    ("racy_writers", Programs.racy_writers, `Race);
  ]

let test_race_goldens () =
  List.iter
    (fun (name, src, expect) ->
      let info = Programs.load src in
      Alcotest.(check (pair string int))
        name
        (match expect with
        | `Free -> ("data-race-free", 0)
        | `Race -> ("DATA RACE", 1))
        (Validate.render Analysis.render_race
           (Validate.check_data_race ~level:Validate.Witness ~budget info)))
    race_table

let row id = List.find (fun (r : Programs.row) -> r.id = id) Programs.table1

let run_query (q : Programs.query) =
  match q with
  | Race src -> ignore (Analysis.check_data_race (Programs.load src))
  | Equiv (p, p', map) ->
    ignore
      (Analysis.check_equivalence (Programs.load p) (Programs.load p') ~map)

let equiv_table =
  [
    ("E1 size_counting fusion", "E1",
     ("equivalent (bisimulation with 7 call pairs)", 0));
    ("E2 invalid fusion", "E2", ("NOT equivalent", 1));
    ("E4 tree_mutation fusion", "E4",
     ("equivalent (bisimulation with 7 call pairs)", 0));
  ]

let test_equiv_goldens () =
  List.iter
    (fun (name, id, expect) ->
      match (row id).query with
      | Race _ -> Alcotest.failf "%s: %s is not an equivalence" name id
      | Equiv (seq, fused, map) ->
        let p = Programs.load seq and p' = Programs.load fused in
        let verdict, report =
          Validate.check_equivalence ~level:Validate.Witness ~budget p p' ~map
        in
        (* every check ran and passed: the E2 counterexample replayed *)
        if
          List.exists
            (fun (c : Validate.check) -> c.status <> Validate.Passed)
            report.Validate.checks
        then Alcotest.failf "%s: a validation check did not pass" name;
        Alcotest.(check (pair string int))
          name expect
          (Validate.render Analysis.render_equiv (verdict, report)))
    equiv_table

(* Deterministic meters of every query the benchmark's paper-cold
   workload runs (Table 1 minus E6), on cold solver state: the fresh
   hash-consed nodes and solver steps its [meters] line reports.  They
   move when the order in which automaton states are discovered and
   numbered changes (another numbering builds other diagrams), or when
   the compile cache serves more or fewer subformulas, even if every
   verdict stays the same. *)
let meters_table =
  [
    ("E1 size_counting fusion", "E1", (44_006, 12_583));
    ("E2 size_counting invalid fusion", "E2", (37_844, 8_094));
    ("E3 size_counting", "E3", (27_705, 4_435));
    ("E4 tree_mutation fusion", "E4", (27_762, 8_699));
    ("E5 css_minification fusion", "E5", (43_325, 9_457));
    ("E7 cycletree_par", "E7", (7_494, 2_076));
  ]

let test_meters () =
  List.iter
    (fun (name, id, expect) ->
      let query () = run_query (row id).query in
      let _, usage = Solver_ctx.with_fresh (fun () -> Engine.metered query) in
      Alcotest.(check (pair int int))
        name expect
        (usage.Engine.nodes, usage.Engine.steps))
    meters_table

(* The states of the largest automaton E1 builds, on cold solver state.
   An atom over a first-order variable is compiled restricted to
   singletons; with atoms that read first-order variables as sets, one
   union in E1's dependence prefilter (a 32-state by a 105-state
   automaton) explored 600 states. *)
let test_e1_peak_states () =
  let peak = ref 0 in
  Treeauto.set_observer (fun _ a -> peak := max !peak (Treeauto.size a));
  Fun.protect ~finally:Treeauto.clear_observer (fun () ->
      Solver_ctx.with_fresh (fun () -> run_query (row "E1").query));
  Alcotest.(check int) "E1 peak states" 49 !peak

let () =
  Alcotest.run "golden"
    [
      ( "verdicts",
        [
          Alcotest.test_case "race + exit code, all bundled programs" `Quick
            test_race_goldens;
          Alcotest.test_case "equivalence (E1/E2/E4)" `Quick
            test_equiv_goldens;
          Alcotest.test_case "meters of E1-E5 and E7 (nodes, steps)" `Quick
            test_meters;
          Alcotest.test_case "largest automaton of E1" `Quick
            test_e1_peak_states;
        ] );
    ]
