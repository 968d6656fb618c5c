(* Tests for the Retreet front end: parser, printer, well-formedness,
   block extraction, relations (Example 1 of the paper), read/write
   analysis and symbolic path conditions. *)

let parse = Parser.parse_program

let info_of src = Wf.check_exn (parse src)

let running = Programs.size_counting

(* --- parsing and printing --- *)

let test_parse_running () =
  let prog = parse running in
  Alcotest.(check int) "three functions" 3 (List.length prog.Ast.funcs);
  let odd = Option.get (Ast.find_func prog "Odd") in
  Alcotest.(check string) "loc param" "n" odd.loc_param;
  Alcotest.(check (list string)) "no int params" [] odd.int_params

(* The canonical printer must round-trip every bundled program *exactly*
   (labels included), and printing must be idempotent: parse/print reaches
   a fixed point after one iteration. *)
let test_pretty_roundtrip () =
  List.iter
    (fun (name, src) ->
      let p1 = parse src in
      let printed = Pretty.print_prog p1 in
      let p2 =
        try parse printed
        with Parser.Error e ->
          Alcotest.failf "%s: canonical print failed to reparse: %s\n%s" name
            e printed
      in
      if not (Pretty.equal_prog p1 p2) then
        Alcotest.failf "%s: print/reparse changed the AST\n%s" name printed;
      Alcotest.(check string)
        (name ^ ": printing is idempotent")
        printed
        (Pretty.print_prog p2))
    Programs.all_named

let test_parse_errors () =
  let bad s =
    match parse s with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "expected a parse error for %S" s
  in
  bad "F(n) { if (n == nil) { return } }";
  (* missing else *)
  bad "F(n) { x = }";
  bad "F(n) { m.v = 1 }";
  (* not the Loc parameter *)
  bad "F(n) { if (n == nil && true) { return } else { return } }";
  bad "F(n) { return @ }"

(* --- blocks and relations (Example 1) --- *)

let test_block_numbering () =
  let info = info_of running in
  Alcotest.(check int) "11 blocks" 11 (Blocks.nblocks info);
  Alcotest.(check int) "2 conditions" 2 (Array.length info.conds);
  (* the paper's numbering: labels s0..s10 match generated ids *)
  List.iteri
    (fun i (b : Blocks.block_info) ->
      Alcotest.(check string)
        (Printf.sprintf "label of block %d" i)
        (Printf.sprintf "s%d" i) b.label)
    (Blocks.all_blocks info);
  Alcotest.(check (list int)) "AllCalls" [ 1; 2; 5; 6; 8; 9 ]
    (List.sort Int.compare (Blocks.all_calls info));
  Alcotest.(check (list int)) "AllNonCalls" [ 0; 3; 4; 7; 10 ]
    (List.sort Int.compare (Blocks.all_noncalls info))

let test_relations () =
  let info = info_of running in
  (* Example 1: s2 / s7, s5 ≺ s7, s0 ↑ s1, s8 ‖ s9 *)
  Alcotest.(check bool) "s2 / s7" true (Blocks.calls info 2 7);
  Alcotest.(check bool) "not s2 / s3" false (Blocks.calls info 2 3);
  Alcotest.(check bool) "s5 ~ s7" true (Blocks.same_func info 5 7);
  Alcotest.(check bool) "s5 prec s7" true (Blocks.order info 5 7 = Blocks.Prec);
  Alcotest.(check bool) "s7 follows s5" true
    (Blocks.order info 7 5 = Blocks.Follows);
  Alcotest.(check bool) "s0 branch s1" true
    (Blocks.order info 0 1 = Blocks.Branch);
  Alcotest.(check bool) "s8 par s9" true (Blocks.order info 8 9 = Blocks.Par);
  Alcotest.(check bool) "parallel symm" true (Blocks.parallel info 9 8);
  (* exactly one of the three relations holds (Lemma 2) *)
  let ids = Blocks.blocks_of_func info "Main" in
  List.iter
    (fun s ->
      List.iter
        (fun q ->
          if s <> q then
            ignore (Blocks.order info s q : Blocks.order))
        ids)
    ids

let test_paths () =
  let info = info_of running in
  (* Path(s6) = ¬c1 (s6 is in the else branch of Even's nil test) *)
  let b6 = Blocks.block info 6 in
  Alcotest.(check string) "s6 in Even" "Even" b6.bfunc;
  (match b6.guards with
  | [ (cid, false) ] ->
    let c = Blocks.cond info cid in
    Alcotest.(check string) "cond in Even" "Even" c.cfunc;
    (match c.cond with
    | Ast.IsNilB [] -> ()
    | _ -> Alcotest.fail "expected n == nil")
  | _ -> Alcotest.fail "expected a single negative guard");
  (* s0 is guarded positively *)
  match (Blocks.block info 0).guards with
  | [ (_, true) ] -> ()
  | _ -> Alcotest.fail "s0 should be positively guarded"

let test_prefix_blocks () =
  let info = info_of running in
  (* s3 executes after s1 and s2 on its path *)
  Alcotest.(check (list int)) "prefix of s3" [ 1; 2 ]
    (List.sort Int.compare (Blocks.block info 3).prefix);
  Alcotest.(check (list int)) "prefix of s1" [] (Blocks.block info 1).prefix;
  (* parallel arms do not prefix each other: s9's prefix is empty *)
  Alcotest.(check (list int)) "prefix of s9" [] (Blocks.block info 9).prefix

(* --- well-formedness --- *)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

let expect_wf_error src fragment =
  match Wf.check (parse src) with
  | Ok _ -> Alcotest.failf "expected a wf error mentioning %S" fragment
  | Error es ->
    if not (List.exists (fun e -> contains e fragment) es) then
      Alcotest.failf "errors %s do not mention %S" (String.concat "; " es)
        fragment

let test_wf () =
  (match Wf.check (parse running) with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "running example ill-formed: %s"
                  (String.concat "; " es));
  expect_wf_error "F(n) { return }" "no Main";
  expect_wf_error
    "F(n) { x = F(n); return x }\nMain(n) { y = F(n); return y }"
    "same-node recursion";
  expect_wf_error
    {|A(n) { x = B(n); return x }
B(n) { x = A(n); return x }
Main(n) { y = A(n); return y }|}
    "same-node recursion";
  expect_wf_error "Main(n) { x = Missing(n); return x }" "undefined";
  expect_wf_error "Main(n) { v = n.l.f + 1; return v }" "nil";
  expect_wf_error "Main(n) { a: x = 1; b: y = 2; a: return x }" "not unique";
  (* deep recursion through n.l is fine *)
  match
    Wf.check
      (parse
         {|F(n) { if (n == nil) { return 0 } else { x = F(n.l); return x } }
Main(n) { y = F(n); return y }|})
  with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat ";" es)

(* --- read/write analysis --- *)

let test_rw () =
  let info = info_of running in
  (* s3: return ls + rs + 1 — reads ls, rs; performs a caller write *)
  let a3 = Rw.of_block info 3 in
  Alcotest.(check bool) "s3 reads ls" true (List.mem (Rw.SVar "ls") a3.reads);
  Alcotest.(check bool) "s3 reads rs" true (List.mem (Rw.SVar "rs") a3.reads);
  Alcotest.(check bool) "s3 ret-writes" true a3.ret_write;
  Alcotest.(check (list string)) "s3 no field writes" []
    (List.filter_map
       (function Rw.SField (_, f) -> Some f | _ -> None)
       a3.writes);
  (* tree mutation: istep reads n.r.v and writes n.v *)
  let tm = info_of Programs.tree_mutation_seq in
  let istep = Option.get (Blocks.block_by_label tm "istep") in
  let ai = Rw.of_block tm istep.id in
  Alcotest.(check bool) "istep reads n.r.v" true
    (List.mem (Rw.SField ([ Ast.R ], "v")) ai.reads);
  Alcotest.(check bool) "istep writes n.v" true
    (List.mem (Rw.SField ([], "v")) ai.writes)

(* --- symbolic execution --- *)

let test_symexec () =
  let info = info_of running in
  let sym = Symexec.analyze info in
  (* both conditions are structural nil tests on the parameter itself *)
  Alcotest.(check int) "c0 is nil test" 0
    (match Symexec.cond_nil sym 0 with Some [] -> 0 | _ -> 1);
  Alcotest.(check int) "c1 is nil test" 0
    (match Symexec.cond_nil sym 1 with Some [] -> 0 | _ -> 1);
  (* arithmetic guard example *)
  let css = info_of Programs.css_minification_seq in
  let csym = Symexec.analyze css in
  let cvset = Option.get (Blocks.block_by_label css "cvset") in
  let atoms =
    List.filter_map
      (fun (cid, polarity) -> Symexec.cond_atom csym cid ~polarity)
      cvset.guards
  in
  Alcotest.(check int) "cvset has one arithmetic guard" 1 (List.length atoms);
  Alcotest.(check bool) "guard is satisfiable" true (Lia.sat atoms)

let () =
  Alcotest.run "lang"
    [
      ( "parse",
        [
          Alcotest.test_case "running example" `Quick test_parse_running;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "numbering" `Quick test_block_numbering;
          Alcotest.test_case "relations" `Quick test_relations;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "prefixes" `Quick test_prefix_blocks;
        ] );
      ("wf", [ Alcotest.test_case "checks" `Quick test_wf ]);
      ("rw", [ Alcotest.test_case "access sets" `Quick test_rw ]);
      ("symexec", [ Alcotest.test_case "summaries" `Quick test_symexec ]);
    ]
