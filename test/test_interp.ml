(* Tests for the heap and the concrete interpreter, including the dynamic
   dependence oracle the MSO verdicts are replayed against. *)

let info_of src = Wf.check_exn (Parser.parse_program src)

(* --- heap --- *)

let test_heap_basics () =
  let t =
    Heap.node
      ~fields:[ ("v", 1) ]
      (Heap.leaf ~fields:[ ("v", 2) ] ())
      Heap.Nil
  in
  Alcotest.(check int) "size" 2 (Heap.size t);
  Alcotest.(check int) "height" 2 (Heap.height t);
  Alcotest.(check int) "field" 1 (Heap.get_field t "v");
  Alcotest.(check int) "default field" 0 (Heap.get_field t "w");
  (match Heap.descend t [ Ast.L ] with
  | Some l -> Alcotest.(check int) "left field" 2 (Heap.get_field l "v")
  | None -> Alcotest.fail "descend");
  (match Heap.descend t [ Ast.R ] with
  | Some r -> Alcotest.(check bool) "right is nil" true (Heap.is_nil r)
  | None -> Alcotest.fail "descend r");
  Alcotest.(check bool) "deep descend fails" true
    (Heap.descend t [ Ast.R; Ast.L ] = None);
  let c = Heap.copy t in
  Alcotest.(check bool) "copy equal" true (Heap.equal t c);
  Heap.set_field c "v" 9;
  Alcotest.(check bool) "copy detached" false (Heap.equal t c);
  Alcotest.(check int) "original intact" 1 (Heap.get_field t "v")

let test_heap_builders () =
  let t = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  Alcotest.(check int) "complete size" 7 (Heap.size t);
  Alcotest.(check int) "complete height" 3 (Heap.height t);
  Alcotest.(check int) "positions" 7 (List.length (Heap.positions t));
  let rng = Random.State.make [| 42 |] in
  let r = Heap.random ~size:20 rng in
  Alcotest.(check bool) "random nonempty" true (Heap.size r >= 1)

(* --- interpreter: the running example computes layer counts --- *)

let rec odd_layers = function
  | Heap.Nil -> 0
  | Heap.Node n -> 1 + even_layers n.left + even_layers n.right

and even_layers = function
  | Heap.Nil -> 0
  | Heap.Node n -> odd_layers n.left + odd_layers n.right

let test_size_counting () =
  let info = info_of Programs.size_counting in
  List.iter
    (fun h ->
      let t = Heap.complete_tree ~height:h ~init:(fun _ -> []) in
      let { Interp.returns; _ } = Interp.run info t [] in
      Alcotest.(check (list int))
        (Printf.sprintf "complete height %d" h)
        [ odd_layers t; even_layers t ]
        returns)
    [ 1; 2; 3; 4 ];
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let t = Heap.random ~size:15 rng in
    let { Interp.returns; _ } = Interp.run info t [] in
    Alcotest.(check (list int)) "random tree" [ odd_layers t; even_layers t ]
      returns
  done

let test_events_are_configurations () =
  let info = info_of Programs.size_counting in
  let t = Heap.leaf () in
  let { Interp.events; _ } = Interp.run info t [] in
  (* single node: iterations are s4/s0 on the nil children, then the two
     returns s3 (Odd at root) and s7 (Even at root), plus Main's s10 *)
  let blocks = List.map (fun (e : Interp.event) -> e.ev_block) events in
  Alcotest.(check int) "7 iterations" 7 (List.length blocks);
  Alcotest.(check bool) "s10 last" true
    (List.nth blocks (List.length blocks - 1) = 10);
  (* every stack starts with the Main frame *)
  List.iter
    (fun (e : Interp.event) ->
      match e.ev_stack with
      | (-1, []) :: _ -> ()
      | _ -> Alcotest.fail "stack must start at the Main frame")
    events

let test_race_free_running_example () =
  let info = info_of Programs.size_counting in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 20 do
    let t = Heap.random ~size:12 rng in
    let { Interp.events; _ } = Interp.run info t [] in
    Alcotest.(check int) "no races" 0 (List.length (Interp.races info events))
  done

let test_racy_program () =
  let info = info_of Programs.racy_writers in
  let t = Heap.complete_tree ~height:2 ~init:(fun _ -> []) in
  let { Interp.events; _ } = Interp.run info t [] in
  let races = Interp.races info events in
  Alcotest.(check bool) "found a race" true (races <> []);
  match races with
  | { race_loc = Interp.LField (_, "v"); _ } :: _ -> ()
  | _ -> Alcotest.fail "race should be on field v"

let test_ordered_not_racy () =
  (* same writes but sequential: no race *)
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
  let info = info_of seq in
  let t = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  let { Interp.events; _ } = Interp.run info t [] in
  Alcotest.(check int) "sequential: no races" 0
    (List.length (Interp.races info events))

let test_equivalence_oracle () =
  let p = info_of Programs.size_counting_seq in
  let fused = info_of Programs.size_counting_fused in
  let invalid = info_of Programs.size_counting_fused_invalid in
  let rng = Random.State.make [| 11 |] in
  let equal_count = ref 0 and diff_count = ref 0 in
  for _ = 1 to 20 do
    let t = Heap.random ~size:10 rng in
    if Interp.equivalent_on p fused t [] then incr equal_count;
    if not (Interp.equivalent_on p invalid t []) then incr diff_count
  done;
  Alcotest.(check int) "valid fusion always agrees" 20 !equal_count;
  Alcotest.(check bool) "invalid fusion disagrees somewhere" true
    (!diff_count > 0)

let test_tree_mutation_fusion_oracle () =
  let p = info_of Programs.tree_mutation_seq in
  let fused = info_of Programs.tree_mutation_fused in
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 20 do
    let t = Heap.random ~size:10 rng in
    Alcotest.(check bool) "mutation fusion agrees" true
      (Interp.equivalent_on p fused t [])
  done

let test_css_fusion_oracle () =
  let p = info_of Programs.css_minification_seq in
  let fused = info_of Programs.css_minification_fused in
  let rng = Random.State.make [| 17 |] in
  let init _ =
    [ ("kind", Random.State.int rng 2); ("prop", Random.State.int rng 2);
      ("value", Random.State.int rng 20) ]
  in
  for _ = 1 to 20 do
    let t = Heap.random ~init ~size:10 rng in
    Alcotest.(check bool) "css fusion agrees" true
      (Interp.equivalent_on p fused t [])
  done

let test_cycletree_oracle () =
  let seq = info_of Programs.cycletree_seq in
  let par = info_of Programs.cycletree_par in
  let t = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  let { Interp.events; _ } = Interp.run seq t [] in
  Alcotest.(check int) "sequential cycletree race-free" 0
    (List.length (Interp.races seq events));
  let t2 = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  let { Interp.events = ev2; _ } = Interp.run par t2 [] in
  let races = Interp.races par ev2 in
  Alcotest.(check bool) "parallel cycletree races on num" true
    (List.exists
       (fun (r : Interp.race) ->
         match r.race_loc with
         | Interp.LField (_, "num") -> true
         | _ -> false)
       races)

(* --- systematic schedule exploration --- *)

let test_explore_deterministic_when_race_free () =
  let info = info_of Programs.size_counting in
  let rng = Random.State.make [| 51 |] in
  for _ = 1 to 5 do
    let base = Heap.random ~size:8 rng in
    let r =
      Explore.run_all info (fun () -> Heap.copy base) []
    in
    Alcotest.(check bool) "explored some schedules" true (r.schedules_run >= 1);
    Alcotest.(check int) "single outcome" 1 (List.length r.outcomes)
  done

let test_explore_racy_outcomes () =
  let info = info_of Programs.racy_writers in
  let base = Heap.complete_tree ~height:1 ~init:(fun _ -> []) in
  let r = Explore.run_all info (fun () -> Heap.copy base) [] in
  (* A writes v=1, B writes v=2 on the single node: both orders occur *)
  Alcotest.(check bool) "several outcomes" true (List.length r.outcomes >= 2)

let test_explore_counts () =
  (* two single-block arms: exactly the two serializations *)
  let info =
    info_of
      {|
A(n) { if (n == nil) { an: return } else { a: n.x = 1; return } }
B(n) { if (n == nil) { bn: return } else { b: n.x = 2; return } }
Main(n) { { m1: A(n) || m2: B(n) }; mret: return }
|}
  in
  let base = Heap.leaf () in
  let r = Explore.run_all info (fun () -> Heap.copy base) [] in
  Alcotest.(check bool) "exhausted" true r.exhausted;
  Alcotest.(check int) "two outcomes" 2 (List.length r.outcomes)

let test_explore_agrees_with_run () =
  (* the canonical schedule's outcome appears among the explored ones *)
  let info = info_of Programs.size_counting in
  let base = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  let h = Heap.copy base in
  let { Interp.returns; _ } = Interp.run info h [] in
  let r = Explore.run_all info (fun () -> Heap.copy base) [] in
  Alcotest.(check bool) "canonical outcome present" true
    (List.exists
       (fun ((o : Explore.outcome), _) -> o.returns = returns)
       r.outcomes)

let test_explore_errors_like_run () =
  (* exploration runs the interpreter's own evaluator, so bad input fails
     with the same Runtime_error as the canonical run *)
  let error_of f =
    match f () with
    | () -> "no error"
    | exception Interp.Runtime_error msg -> msg
  in
  let check name src args =
    (* ill-formed on purpose: no well-formedness check *)
    let info = Blocks.analyze (Parser.parse_program src) in
    let base = Heap.leaf ~fields:[ ("v", 1) ] () in
    let expected =
      error_of (fun () -> ignore (Interp.run info (Heap.copy base) args))
    in
    Alcotest.(check bool) (name ^ ": run fails") true (expected <> "no error");
    Alcotest.(check string) name expected
      (error_of (fun () ->
           ignore (Explore.run_all info (fun () -> Heap.copy base) args)))
  in
  check "field read on nil" "Main(n) { a: n.v = n.l.v; return }" [];
  check "field write on nil" "Main(n) { a: n.l.v = 1; return }" [];
  check "arity" "Main(n) { a: n.v = 1; return }" [ 1 ]

(* --- characterization: every bundled program on fixed seeded trees ---

   Two digests per program, over the same trees: one of [Interp.run]'s
   events (with their configurations), returns, final heaps and runtime
   errors; one of [Explore.run_all]'s schedule counts and sorted
   outcomes.  A change to what a program computes, to the recorded
   configurations or to the explored schedules shows here; update a
   digest only for an intended change of semantics. *)

let pinned_trees () =
  let rng = Random.State.make [| 0xc4a7 |] in
  let init _ =
    List.map
      (fun f -> (f, Random.State.int rng 12))
      [ "v"; "value"; "kind"; "prop"; "num"; "swapped" ]
  in
  List.map (fun h -> Heap.complete_tree ~height:h ~init) [ 1; 2; 3 ]
  @ List.init 2 (fun _ -> Heap.random ~init ~size:6 rng)

let main_args (info : Blocks.t) =
  List.map (fun _ -> 0) (Ast.main_func info.prog).int_params

let render_run info tree =
  let path = Fmt.str "%a" Interp.pp_path in
  let locs l = String.concat "," (List.map (Fmt.str "%a" Interp.pp_loc) l) in
  let render_event (e : Interp.event) =
    Printf.sprintf "%s | %d at %s | reads %s | writes %s"
      (String.concat " "
         (List.map (fun (b, p) -> Printf.sprintf "%d:%s" b (path p)) e.ev_stack))
      e.ev_block (path e.ev_path) (locs e.ev_reads) (locs e.ev_writes)
  in
  let heap = Heap.copy tree in
  match Interp.run info heap (main_args info) with
  | { Interp.events; returns } ->
    String.concat "\n"
      (List.map render_event events
      @ [
          "returns " ^ String.concat "," (List.map string_of_int returns);
          Fmt.str "heap %a" Heap.pp heap;
        ])
  | exception Interp.Runtime_error msg -> "error " ^ msg

let render_explore info tree =
  let r =
    Explore.run_all ~limit:200 info (fun () -> Heap.copy tree) (main_args info)
  in
  String.concat "\n"
    (Printf.sprintf "%d %b" r.schedules_run r.exhausted
    :: List.map
         (fun ((o : Explore.outcome), n) ->
           Printf.sprintf "%d x %s %s" n
             (String.concat "," (List.map string_of_int o.returns))
             o.heap_repr)
         (List.sort compare r.outcomes))

let pinned_digests =
  [
    ( "css_minification_fused",
      "f0669c40e56e7f8fc73a002af7e390ee",
      "032b95a735270e013483885c060eb50c" );
    ( "css_minification_seq",
      "a9415275ed4988366f898a1f108747be",
      "032b95a735270e013483885c060eb50c" );
    ( "cycletree_fused",
      "86010c11fd5af30431c7dfd36c7ae75d",
      "b113ad96187d8926bc8b83148c3d4c10" );
    ( "cycletree_par",
      "cc7e04e5eda74cb1097ef099459366c7",
      "175bd449f72158a971ef00e479211f80" );
    ( "cycletree_seq",
      "cc7e04e5eda74cb1097ef099459366c7",
      "b113ad96187d8926bc8b83148c3d4c10" );
    ( "racy_writers",
      "7ddb7afe8782d76b3ca06b633865b940",
      "e2100457c850484a63abbf17d0507e07" );
    ( "size_counting",
      "04bbbfc12cbbfa9dec36ad88192fc17d",
      "8e43f1bcfabad0dca29be88f9a11b11b" );
    ( "size_counting_fused",
      "cd6999ec7fb4fe3cfddf4b0fdbafdb50",
      "d945e6e48f6cf3cb8842b30c10db971b" );
    ( "size_counting_fused_invalid",
      "da31add12830e586727739a954dae741",
      "edc9897af0973e7b534e03839739e162" );
    ( "size_counting_seq",
      "04bbbfc12cbbfa9dec36ad88192fc17d",
      "d945e6e48f6cf3cb8842b30c10db971b" );
    ( "tree_mutation_fused",
      "9d6a07ca05bcfadbd086b7cc277a205f",
      "4a7c0af4bcf2766b0a76531cb3bdfe64" );
    ( "tree_mutation_seq",
      "64f1279863b4e6e59af639de25554736",
      "4a7c0af4bcf2766b0a76531cb3bdfe64" );
  ]

let test_characterization () =
  let trees = pinned_trees () in
  let digest render info =
    Digest.to_hex
      (Digest.string (String.concat "\n--\n" (List.map (render info) trees)))
  in
  let actual =
    List.map
      (fun (name, src) ->
        let info = info_of src in
        (name, digest render_run info, digest render_explore info))
      Programs.all_named
  in
  Alcotest.(check (list (triple string string string)))
    "run and explore digests" pinned_digests actual

(* The definition of [Interp.races]: every pair of iterations, in index
   order, that is unordered and conflicts, with the least conflicting
   location.  [races] tests only pairs that share a location; it must
   find the same races in the same order. *)
let pairwise_races info events =
  let arr = Array.of_list events in
  let out = ref [] in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Interp.unordered info arr.(i) arr.(j) then
        match Interp.conflicting arr.(i) arr.(j) with
        | [] -> ()
        | l :: _ ->
          out :=
            { Interp.race_e1 = arr.(i); race_e2 = arr.(j); race_loc = l }
            :: !out
    done
  done;
  List.rev !out

let test_races_match_pairwise () =
  let rng = Random.State.make [| 0x7ace |] in
  let init _ =
    List.map
      (fun f -> (f, Random.State.int rng 12))
      [ "v"; "value"; "kind"; "prop"; "num"; "swapped" ]
  in
  let trees =
    List.map (fun h -> Heap.complete_tree ~height:h ~init) [ 2; 4 ]
    @ List.init 4 (fun _ -> Heap.random ~init ~size:12 rng)
  in
  List.iter
    (fun (name, src) ->
      let info = info_of src in
      List.iter
        (fun tree ->
          match Interp.run info (Heap.copy tree) (main_args info) with
          | { Interp.events; _ } ->
            if Interp.races info events <> pairwise_races info events then
              Alcotest.failf "%s: races differ from the pairwise definition"
                name
          | exception Interp.Runtime_error _ -> ())
        trees)
    Programs.all_named

let () =
  Alcotest.run "interp"
    [
      ( "heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "builders" `Quick test_heap_builders;
        ] );
      ( "run",
        [
          Alcotest.test_case "size counting" `Quick test_size_counting;
          Alcotest.test_case "events" `Quick test_events_are_configurations;
          Alcotest.test_case "characterization" `Quick test_characterization;
        ] );
      ( "races",
        [
          Alcotest.test_case "race-free" `Quick test_race_free_running_example;
          Alcotest.test_case "racy" `Quick test_racy_program;
          Alcotest.test_case "ordered" `Quick test_ordered_not_racy;
          Alcotest.test_case "cycletree" `Quick test_cycletree_oracle;
          Alcotest.test_case "same as the pairwise definition" `Quick
            test_races_match_pairwise;
        ] );
      ( "explore",
        [
          Alcotest.test_case "deterministic when race-free" `Quick
            test_explore_deterministic_when_race_free;
          Alcotest.test_case "racy outcomes" `Quick test_explore_racy_outcomes;
          Alcotest.test_case "counts" `Quick test_explore_counts;
          Alcotest.test_case "agrees with run" `Quick
            test_explore_agrees_with_run;
          Alcotest.test_case "errors like run" `Quick
            test_explore_errors_like_run;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "size counting" `Quick test_equivalence_oracle;
          Alcotest.test_case "tree mutation" `Quick
            test_tree_mutation_fusion_oracle;
          Alcotest.test_case "css" `Quick test_css_fusion_oracle;
        ] );
    ]
