(* Tests for the source-to-source transformations and the coarse baseline
   analysis. *)

(* --- fusion --- *)

let test_fuse_css () =
  let p = Programs.load Programs.css_minification_seq in
  match
    Transform.fuse p.prog [ "ConvertValues"; "MinifyFont"; "ReduceInit" ]
  with
  | Error e -> Alcotest.failf "fuse: %s" e
  | Ok (prog', map) ->
    let fused = Wf.check_exn prog' in
    Alcotest.(check bool) "has Fused" true
      (Ast.find_func prog' "Fused" <> None);
    Alcotest.(check bool) "drops the pass functions" true
      (Ast.find_func prog' "ConvertValues" = None);
    (* the three nil blocks all map to the fused nil block *)
    Alcotest.(check (option string)) "mfnil mapped" (Some "cvnil")
      (List.assoc_opt "mfnil" map);
    Alcotest.(check (option string)) "rinil mapped" (Some "cvnil")
      (List.assoc_opt "rinil" map);
    (* and the generated program behaves like the original *)
    let rng = Random.State.make [| 5 |] in
    for _ = 1 to 25 do
      let init _ =
        [ ("kind", Random.State.int rng 2); ("prop", Random.State.int rng 2);
          ("value", Random.State.int rng 20) ]
      in
      let t = Heap.random ~init ~size:12 rng in
      if not (Interp.equivalent_on p fused t []) then
        Alcotest.fail "generated css fusion disagrees concretely"
    done

let test_fuse_mixed_child_order () =
  (* IncrmLeft recurses right-then-left; fusion normalizes to left-right
     and the result still agrees (values don't depend on visit order) *)
  let p = Programs.load Programs.tree_mutation_seq in
  match Transform.fuse p.prog [ "Swap"; "IncrmLeft" ] with
  | Error e -> Alcotest.failf "fuse: %s" e
  | Ok (prog', _map) ->
    let fused = Wf.check_exn prog' in
    let rng = Random.State.make [| 6 |] in
    for _ = 1 to 25 do
      let t = Heap.random ~size:12 rng in
      if not (Interp.equivalent_on p fused t []) then
        Alcotest.fail "generated mutation fusion disagrees concretely"
    done

let test_fuse_rejects_bad_shapes () =
  let reject src names =
    let p = Programs.load src in
    match Transform.fuse p.prog names with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected fusion to be rejected"
  in
  (* mutual recursion is not the post-order shape *)
  reject Programs.size_counting_seq [ "Odd"; "Even" ];
  (* unknown traversal *)
  reject Programs.tree_mutation_seq [ "Swap"; "Missing" ];
  (* wrong call order in Main *)
  reject Programs.tree_mutation_seq [ "IncrmLeft"; "Swap" ]

(* Replace the sequential composition of [Main]'s traversal calls by a
   parallel composition (the parallelization the paper checks for races).
   All top-level calls of [Main] become parallel arms; trailing non-call
   blocks stay sequenced after them.  The bundled [cycletree_par] is the
   hand-written result for the cycletree case study. *)
let parallelize_main (prog : Ast.prog) : (Ast.prog, string) result =
  let main = Ast.main_func prog in
  let rec split = function
    | Ast.SSeq (a, b) ->
      Result.bind (split a) (fun (ca, ra) ->
          Result.bind (split b) (fun (cb, rb) -> Ok (ca @ cb, ra @ rb)))
    | Ast.SBlock (_, Ast.Call _) as s -> Ok ([ s ], [])
    | Ast.SBlock (_, Ast.Straight _) as s -> Ok ([], [ s ])
    | _ -> Error "Main has an unsupported shape for parallelization"
  in
  Result.bind (split main.body) @@ fun (calls, rest) ->
  match calls with
  | [] | [ _ ] -> Error "Main performs fewer than two traversal calls"
  | c :: cs ->
    let par = List.fold_left (fun acc s -> Ast.SPar (acc, s)) c cs in
    let body =
      List.fold_left (fun acc s -> Ast.SSeq (acc, s)) par rest
    in
    let main' = { main with Ast.body = body } in
    Ok
      {
        Ast.funcs =
          List.map
            (fun (f : Ast.func) -> if f.fname = "Main" then main' else f)
            prog.funcs;
      }

let test_parallelize () =
  let p = Programs.load Programs.cycletree_seq in
  match parallelize_main p.prog with
  | Error e -> Alcotest.failf "parallelize: %s" e
  | Ok prog' ->
    let par = Wf.check_exn prog' in
    (* the parallelized Main has a parallel pair *)
    let rec has_par = function
      | Ast.SPar _ -> true
      | Ast.SBlock _ -> false
      | Ast.SIf (_, a, b) | Ast.SSeq (a, b) -> has_par a || has_par b
    in
    Alcotest.(check bool) "parallel main" true
      (has_par (Ast.main_func prog').body);
    (* and it is exactly the racy variant: the dynamic oracle finds the
       num race on a concrete tree *)
    let t = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
    let { Interp.events; _ } = Interp.run par t [] in
    Alcotest.(check bool) "dynamic race appears" true
      (Interp.races par events <> [])

(* --- baseline --- *)

let test_baseline_mutual_recursion_unsupported () =
  let p = Programs.load Programs.size_counting_seq in
  match Baseline.can_fuse p.prog "Odd" "Even" with
  | Baseline.Unsupported _ -> ()
  | v -> Alcotest.failf "expected unsupported, got %a" Baseline.pp_verdict v

let test_baseline_rejects_css () =
  let p = Programs.load Programs.css_minification_seq in
  match Baseline.can_fuse p.prog "ConvertValues" "ReduceInit" with
  | Baseline.Rejected "value" -> ()
  | v -> Alcotest.failf "expected rejection on value, got %a"
           Baseline.pp_verdict v

let test_baseline_allows_disjoint () =
  let p = Programs.load Programs.tree_mutation_seq in
  (* Swap writes only `swapped`; IncrmLeft reads/writes only `v` *)
  match Baseline.can_fuse p.prog "Swap" "IncrmLeft" with
  | Baseline.Allowed -> ()
  | v -> Alcotest.failf "expected allowed, got %a" Baseline.pp_verdict v

let test_baseline_cycletree_unsupported () =
  let p = Programs.load Programs.cycletree_seq in
  match Baseline.can_parallelize p.prog "RootMode" "ComputeRouting" with
  | Baseline.Unsupported _ -> ()
  | v -> Alcotest.failf "expected unsupported, got %a" Baseline.pp_verdict v

let test_baseline_field_sets () =
  let p = Programs.load Programs.cycletree_seq in
  let reads, writes = Baseline.field_sets p.prog "ComputeRouting" in
  Alcotest.(check bool) "reads num" true (List.mem "num" reads);
  Alcotest.(check bool) "writes min" true (List.mem "min" writes);
  let fam = Baseline.family p.prog "RootMode" in
  Alcotest.(check bool) "modes are one family" true
    (List.mem "PostMode" fam && List.mem "InMode" fam)

let test_baseline_unknown_traversal () =
  (* a name that is not a function is an error, not an empty traversal *)
  let p = Programs.load Programs.size_counting_seq in
  Alcotest.check_raises "first unknown name" (Baseline.Unknown_traversal "Nope")
    (fun () -> ignore (Baseline.can_fuse p.prog "Nope" "Nada"));
  Alcotest.check_raises "second name" (Baseline.Unknown_traversal "Nada")
    (fun () -> ignore (Baseline.can_parallelize p.prog "Odd" "Nada"));
  Alcotest.check_raises "field sets" (Baseline.Unknown_traversal "Nope")
    (fun () -> ignore (Baseline.field_sets p.prog "Nope"))

(* --- n-ary traversal compilation (Nary) --- *)

let test_nary_css_pipeline () =
  (* the mechanized LCRS conversion reproduces the hand-converted program *)
  let generated = Nary.compile_pipeline Nary.css_specs in
  let g = Wf.check_exn generated in
  let hand = Programs.load Programs.css_minification_seq in
  Alcotest.(check int) "same block count" (Blocks.nblocks hand)
    (Blocks.nblocks g);
  (* and they agree concretely *)
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 25 do
    let init _ =
      [ ("kind", Random.State.int rng 2); ("prop", Random.State.int rng 2);
        ("value", Random.State.int rng 20) ]
    in
    let t = Heap.random ~init ~size:12 rng in
    if not (Interp.equivalent_on hand g t []) then
      Alcotest.fail "generated n-ary pipeline disagrees with the hand version"
  done

let test_nary_pre_order () =
  (* a pre-order spec runs the action before the children: parent value
     visible to children via fields *)
  let spec =
    {
      Nary.name = "Mark";
      order = Nary.Pre;
      action =
        { guard = None;
          assigns = [ Ast.SetField ([], "seen", Ast.Num 1) ];
          guard_label = Some "mark"; skip_label = None };
    }
  in
  let prog = Nary.compile_pipeline [ spec ] in
  let info = Wf.check_exn prog in
  let t = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  ignore (Interp.run info t []);
  List.iter
    (fun (node, _) ->
      Alcotest.(check int) "marked" 1 (Heap.get_field node "seen"))
    (Heap.positions t)

(* --- mutation simulation (Mutation) --- *)

let natural_incrm =
  {|
IncrmLeft(n) {
  if (n == nil) {
    inil: return
  } else {
    i1: IncrmLeft(n.l);
    i2: IncrmLeft(n.r);
    if (n.l == nil) {
      ileaf: n.v = 1;
      return
    } else {
      istep: n.v = n.l.v + 1;
      return
    }
  }
}

Main(n) {
  m2: IncrmLeft(n);
  mret: return
}
|}

let test_simulate_swap () =
  let natural = Programs.parse natural_incrm in
  match Mutation.simulate_swap natural ~downstream:[ "IncrmLeft" ] with
  | Error e -> Alcotest.failf "simulate_swap: %s" e
  | Ok prog' ->
    let sim = Wf.check_exn prog' in
    (* the generated program behaves like the paper's hand-rewritten one *)
    let hand = Programs.load Programs.tree_mutation_seq in
    let rng = Random.State.make [| 41 |] in
    for _ = 1 to 25 do
      let t = Heap.random ~size:12 rng in
      if not (Interp.equivalent_on hand sim t []) then
        Alcotest.fail "simulated swap disagrees with the paper's rewriting"
    done;
    (* directions were mirrored: istep now reads n.r.v *)
    let istep = Option.get (Blocks.block_by_label sim "istep") in
    let a = Rw.of_block sim istep.id in
    Alcotest.(check bool) "mirrored read" true
      (List.mem (Rw.SField ([ Ast.R ], "v")) a.reads)

let test_simulate_swap_errors () =
  let natural = Programs.parse natural_incrm in
  (match Mutation.simulate_swap natural ~downstream:[ "Nope" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing downstream accepted");
  match
    Mutation.simulate_swap ~swap_name:"IncrmLeft" natural
      ~downstream:[ "IncrmLeft" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "name clash accepted"

let () =
  Alcotest.run "transform"
    [
      ( "fuse",
        [
          Alcotest.test_case "css three passes" `Quick test_fuse_css;
          Alcotest.test_case "mixed child order" `Quick
            test_fuse_mixed_child_order;
          Alcotest.test_case "rejects bad shapes" `Quick
            test_fuse_rejects_bad_shapes;
        ] );
      ( "parallelize",
        [ Alcotest.test_case "cycletree main" `Quick test_parallelize ] );
      ( "nary",
        [
          Alcotest.test_case "css pipeline" `Quick test_nary_css_pipeline;
          Alcotest.test_case "pre-order" `Quick test_nary_pre_order;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "simulate swap" `Quick test_simulate_swap;
          Alcotest.test_case "errors" `Quick test_simulate_swap_errors;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "mutual recursion" `Quick
            test_baseline_mutual_recursion_unsupported;
          Alcotest.test_case "css rejected" `Quick test_baseline_rejects_css;
          Alcotest.test_case "disjoint allowed" `Quick
            test_baseline_allows_disjoint;
          Alcotest.test_case "cycletree unsupported" `Quick
            test_baseline_cycletree_unsupported;
          Alcotest.test_case "field sets" `Quick test_baseline_field_sets;
          Alcotest.test_case "unknown traversal" `Quick
            test_baseline_unknown_traversal;
        ] );
    ]
