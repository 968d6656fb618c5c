(* The scenario factory and its ground-truth campaign.

   Four arguments, in increasing strength: generated programs are
   canonical (the printer/parser round-trip is exact, as a qcheck
   property over the whole generator); sampling is deterministic in the
   seed; a bounded fixed-seed campaign through the production query
   planes reports zero ground-truth disagreements; and — the self-test
   that proves the harness can catch bugs at all — arming a fault site
   known to flip verdicts makes the campaign disagree, after which the
   shrinker must emit a parseable, well-formed minimal reproducer. *)

let reparse = Parser.parse_program

(* --- printer/parser round-trip over the generator --- *)

let scenario_arb =
  QCheck.make Factory.gen_scenario ~print:(fun sc -> sc.Factory.sc_source)

let roundtrip_prop (sc : Factory.scenario) =
  let check src =
    let p = reparse src in
    let printed = Pretty.print_prog p in
    (* exact round-trip, and printing is idempotent *)
    Pretty.equal_prog p (reparse printed)
    && String.equal printed (Pretty.print_prog (reparse printed))
  in
  check sc.Factory.sc_source
  && (match sc.Factory.sc_sibling with None -> true | Some s -> check s)

let test_roundtrip =
  QCheck.Test.make ~count:150 ~name:"parse (print p) = p over the factory"
    scenario_arb roundtrip_prop

(* ... and seeded with the bundled programs, which exercise corners the
   generator does not (mixed parallel arities, cycletree's block zoo). *)
let test_roundtrip_bundled () =
  List.iter
    (fun (name, src) ->
      let p = reparse src in
      if not (Pretty.equal_prog p (reparse (Pretty.print_prog p))) then
        Alcotest.failf "%s does not round-trip" name)
    Programs.all_named

(* --- determinism --- *)

let test_sample_deterministic () =
  let run () =
    List.map
      (fun (sc : Factory.scenario) ->
        (sc.Factory.sc_source, sc.Factory.sc_sibling, sc.Factory.sc_css))
      (Factory.sample ~seed:5 ~count:12)
  in
  if run () <> run () then
    Alcotest.fail "same seed must reproduce the same corpus"

(* --- every scenario carries a ground truth consistent with its kind --- *)

let test_truth_tags () =
  List.iter
    (fun (sc : Factory.scenario) ->
      let open Factory in
      match (sc.sc_kind, sc.sc_expect_race, sc.sc_expect_equiv) with
      | Par_clean, `Free, None | Par_racy, `Racy, None
      | Fuse_valid, `Free, Some `Equivalent
      | Fuse_broken, `Free, Some `Conflict ->
        ()
      | k, _, _ ->
        Alcotest.failf "%s carries inconsistent ground-truth tags"
          (kind_name k))
    (Factory.sample ~seed:9 ~count:40)

(* --- shrink candidates stay buildable --- *)

let test_shrink_buildable () =
  List.iter
    (fun (sc : Factory.scenario) ->
      List.iter
        (fun shape ->
          match Factory.build sc.Factory.sc_kind shape with
          | (_ : Factory.scenario) -> ()
          | exception Invalid_argument _ -> ()
          (* anything else — Parse/Wf assertion — is a factory bug *))
        (Factory.shrink_shape sc.Factory.sc_shape))
    (Factory.sample ~seed:2 ~count:15)

(* --- the bounded clean campaign (the @corpus smoke) --- *)

let smoke_config =
  { Corpus.default_config with serve_sample = 2 }

let test_campaign_smoke () =
  let scenarios = Factory.sample ~seed:3 ~count:8 in
  let s = Corpus.run_campaign smoke_config scenarios in
  List.iter
    (fun (d : Corpus.disagreement) ->
      Fmt.epr "disagreement: #%d %s@." d.Corpus.d_index d.Corpus.d_detail)
    s.Corpus.disagreements;
  Alcotest.(check int) "no disagreements" 0 (List.length s.Corpus.disagreements);
  Alcotest.(check int) "all scenarios" 8 s.Corpus.total;
  if s.Corpus.agree = 0 then Alcotest.fail "campaign decided nothing"

(* --- the sabotage self-test --- *)

(* treeauto.swap_final:1 is one of the sites test_validate pins as
   demonstrably verdict-flipping; period 1 makes every hit fire. *)
let sabotaged_config =
  { Corpus.default_config with inject = Some ("treeauto.swap_final", 1, 1) }

let test_sabotage_caught () =
  let scenarios = Factory.sample ~seed:1 ~count:6 in
  let bad =
    List.filter
      (fun sc -> Corpus.check_scenario sabotaged_config sc <> [])
      scenarios
  in
  if bad = [] then
    Alcotest.fail
      "sabotaged solver produced no ground-truth disagreement: the campaign \
       cannot catch bugs";
  (* shrink the first disagreement and the reproducer must still parse,
     pass wf, and still disagree *)
  let d =
    {
      Corpus.d_index = 0;
      d_scenario = List.hd bad;
      d_detail = "sabotage self-test";
    }
  in
  let small = Corpus.shrink sabotaged_config d in
  if Corpus.check_scenario sabotaged_config small = [] then
    Alcotest.fail "shrunk scenario no longer disagrees";
  if Factory.scenario_size small > Factory.scenario_size d.Corpus.d_scenario
  then Alcotest.fail "shrinking grew the scenario";
  let dir = Filename.temp_file "retreet_repro" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Corpus.write_repro ~dir small in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let p = reparse contents in
  if not (Pretty.equal_prog p (reparse (Pretty.print_prog p))) then
    Alcotest.fail "reproducer does not round-trip"

let () =
  Alcotest.run "factory"
    [
      ( "generator",
        [
          QCheck_alcotest.to_alcotest test_roundtrip;
          Alcotest.test_case "bundled round-trip" `Quick test_roundtrip_bundled;
          Alcotest.test_case "sample determinism" `Quick
            test_sample_deterministic;
          Alcotest.test_case "ground-truth tags" `Quick test_truth_tags;
          Alcotest.test_case "shrink candidates buildable" `Quick
            test_shrink_buildable;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bounded clean campaign" `Slow test_campaign_smoke;
          Alcotest.test_case "sabotage is caught" `Slow test_sabotage_caught;
        ] );
    ]
