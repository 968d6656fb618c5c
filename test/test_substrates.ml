(* Tests for the application substrates: the CSS object model, parser and
   minification passes; the LCRS binarization; cycletrees; and the MONA
   interop layer. *)

(* ------------------------------------------------------------------ *)
(* CSS                                                                  *)

let sample_css =
  {|
/* comment */
body { margin: initial; font-weight: normal; transition: 100ms }
h1 { font-weight: bold; min-width: initial !important; padding: 0px }
|}

let test_css_parse () =
  let sheet = Css_parser.parse sample_css in
  Alcotest.(check int) "two rules" 2 (List.length sheet);
  let body = List.hd sheet in
  Alcotest.(check string) "selector" "body" body.Css_ast.selector;
  Alcotest.(check int) "three decls" 3 (List.length body.declarations);
  let h1 = List.nth sheet 1 in
  let mw = List.nth h1.declarations 1 in
  Alcotest.(check bool) "important" true mw.Css_ast.important;
  match (List.nth body.declarations 2).Css_ast.value with
  | [ Css_ast.Dim (100., "ms") ] -> ()
  | _ -> Alcotest.fail "expected 100ms"

let test_css_roundtrip () =
  let sheet = Css_parser.parse sample_css in
  let printed = Css_ast.to_string sheet in
  let reparsed = Css_parser.parse printed in
  Alcotest.(check bool) "print/parse roundtrip" true
    (Css_ast.equal_stylesheet sheet reparsed);
  (* the pretty printer parses back too *)
  let pretty = Css_ast.to_pretty_string sheet in
  Alcotest.(check bool) "pretty roundtrip" true
    (Css_ast.equal_stylesheet sheet (Css_parser.parse pretty))

let test_css_parse_errors () =
  let bad s =
    match Css_parser.parse s with
    | exception Css_parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "@media screen { }";
  bad "body { margin }";
  bad "body { margin: 1px ";
  bad "body { margin: \"unterminated }"

let test_css_minify_passes () =
  let sheet = Css_parser.parse sample_css in
  let m = Css_minify.minify sheet in
  let out = Css_ast.to_string m in
  let contains frag =
    let ls = String.length out and lf = String.length frag in
    let rec go i = i + lf <= ls && (String.sub out i lf = frag || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "100ms -> .1s" true (contains ".1s");
  Alcotest.(check bool) "normal -> 400" true (contains "font-weight:400");
  Alcotest.(check bool) "bold -> 700" true (contains "font-weight:700");
  Alcotest.(check bool) "min-width initial -> 0" true (contains "min-width:0");
  Alcotest.(check bool) "0px -> 0" true (contains "padding:0");
  Alcotest.(check bool) "minification shrinks" true
    (Css_ast.size_bytes m < Css_ast.size_bytes sheet);
  (* fused pass agrees with the pipeline *)
  Alcotest.(check bool) "fused = sequential" true
    (Css_ast.equal_stylesheet m (Css_minify.minify_fused sheet))

let test_css_minify_idempotent () =
  let sheet = Css_parser.parse sample_css in
  let once = Css_minify.minify sheet in
  let twice = Css_minify.minify once in
  Alcotest.(check bool) "idempotent" true
    (Css_ast.equal_stylesheet once twice)

(* property: fused pass always agrees with the pipeline on generated sheets *)
let css_gen =
  QCheck2.Gen.(
    let dim =
      map2 (fun v u -> Css_ast.Dim (float_of_int v, u))
        (int_range 0 2000)
        (oneofl [ "ms"; "s"; "px"; "em"; "" ])
    in
    let comp =
      oneof
        [ dim;
          map (fun k -> Css_ast.Keyword k)
            (oneofl [ "normal"; "bold"; "initial"; "auto"; "red" ]) ]
    in
    let decl =
      map2
        (fun p v -> { Css_ast.property = p; value = [ v ]; important = false })
        (oneofl
           [ "font-weight"; "min-width"; "margin"; "transition"; "color" ])
        comp
    in
    let rule =
      map (fun ds -> { Css_ast.selector = "a"; declarations = ds })
        (list_size (int_range 1 5) decl)
    in
    list_size (int_range 1 4) rule)

let prop_fused_pipeline_agree =
  QCheck2.Test.make ~name:"fused pass = three-pass pipeline" ~count:200
    css_gen (fun sheet ->
      Css_ast.equal_stylesheet (Css_minify.minify sheet)
        (Css_minify.minify_fused sheet))

let prop_minify_shrinks =
  QCheck2.Test.make ~name:"minification never grows the sheet" ~count:200
    css_gen (fun sheet ->
      Css_ast.size_bytes (Css_minify.minify sheet) <= Css_ast.size_bytes sheet)

(* --- LCRS --- *)

let test_lcrs () =
  let sheet = Css_parser.parse sample_css in
  let t = Css_lcrs.lcrs_of_stylesheet sheet in
  (* positions: sheet + 2 rules + 6 decls + 6 components = 15 *)
  Alcotest.(check int) "positions" 15 (Heap.size t);
  Alcotest.(check bool) "abstract size positive" true
    (Css_lcrs.abstract_size t > 0);
  (* running the verified Retreet passes on the binarized sheet shrinks the
     abstract size, and the fused traversal computes the same heap *)
  let seq = Programs.load Programs.css_minification_seq in
  let fused = Programs.load Programs.css_minification_fused in
  let t1 = Heap.copy t and t2 = Heap.copy t in
  let before = Css_lcrs.abstract_size t in
  ignore (Interp.run seq t1 []);
  ignore (Interp.run fused t2 []);
  Alcotest.(check bool) "abstract passes shrink" true
    (Css_lcrs.abstract_size t1 < before);
  Alcotest.(check bool) "fused heap equals sequential heap" true
    (Heap.equal t1 t2)

(* ------------------------------------------------------------------ *)
(* Cycletrees                                                           *)

let test_cycletree_numbering () =
  List.iter
    (fun h ->
      let t = Heap.complete_tree ~height:h ~init:(fun _ -> []) in
      let n = Cycletree.build t in
      Alcotest.(check int) "node count" (Heap.size t) n;
      Alcotest.(check bool) "bijection" true
        (Cycletree.numbering_is_bijection t))
    [ 1; 2; 3; 4; 5 ];
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 10 do
    let t = Heap.random ~size:20 rng in
    ignore (Cycletree.build t);
    Alcotest.(check bool) "random bijection" true
      (Cycletree.numbering_is_bijection t)
  done

let test_cycletree_routing () =
  let t = Heap.complete_tree ~height:4 ~init:(fun _ -> []) in
  let n = Cycletree.build t in
  let height = Heap.height t in
  (* from every node to every destination, routing converges within 2h *)
  List.iter
    (fun (_, from) ->
      for dest = 0 to n - 1 do
        let hops, arrived = Cycletree.route t ~from ~dest in
        Alcotest.(check bool) "hop bound" true (hops <= 2 * height);
        match Heap.descend t arrived with
        | Some node ->
          Alcotest.(check int) "arrived at dest" dest
            (Heap.get_field node "num")
        | None -> Alcotest.fail "bad arrival path"
      done)
    (Heap.positions t)

let test_cycletree_edges () =
  let t = Heap.complete_tree ~height:4 ~init:(fun _ -> []) in
  let n = Cycletree.build t in
  let extra = List.length (Cycletree.cycle_edges t) in
  (* tree edges + cycle edges stay within the cycletree ballpark: strictly
     fewer extra edges than nodes *)
  Alcotest.(check bool) "extra edges < n" true (extra < n);
  Alcotest.(check bool) "total edges >= n" true (Cycletree.edge_count t >= n - 1)

let test_cycletree_matches_interp () =
  (* the routing data computed by the substrate matches the verified
     Retreet traversal when the numbering agrees; the substrate threads
     the counter, Figure 9 passes it by value, so compare on the routing
     pass only: plant the substrate numbering, then run only the
     ComputeRouting part via the Retreet program on a copy. *)
  let t1 = Heap.complete_tree ~height:3 ~init:(fun _ -> []) in
  ignore (Cycletree.build t1);
  let t2 = Heap.copy t1 in
  (* strip routing fields from t2, keep num *)
  List.iter
    (fun (node, _) ->
      List.iter (fun f -> Heap.set_field node f 0)
        [ "lmin"; "lmax"; "rmin"; "rmax"; "min"; "max" ])
    (Heap.positions t2);
  let routing_only =
    Programs.load
      {|
ComputeRouting(n) {
  if (n == nil) {
    crnil: return
  } else {
    cr1: ComputeRouting(n.l);
    cr2: ComputeRouting(n.r);
    rt: Route(n);
    crret: return
  }
}

Route(n) {
  if (n == nil) {
    rtnil: return
  } else {
    if (n.l == nil) {
      crlz: n.lmin = n.num;
      n.lmax = n.num
    } else {
      crl: n.lmin = n.l.min;
      n.lmax = n.l.max
    };
    if (n.r == nil) {
      crrz: n.rmin = n.num;
      n.rmax = n.num
    } else {
      crr: n.rmin = n.r.min;
      n.rmax = n.r.max
    };
    if (n.lmax - n.rmax > 0) {
      cmx1: n.max = n.lmax
    } else {
      cmx2: n.max = n.rmax
    };
    if (n.num - n.max > 0) {
      cmx3: n.max = n.num
    } else {
      cmx4: n.max = n.max + 0
    };
    if (n.rmin - n.lmin > 0) {
      cmn1: n.min = n.lmin
    } else {
      cmn2: n.min = n.rmin
    };
    if (n.min - n.num > 0) {
      cmn3: n.min = n.num
    } else {
      cmn4: n.min = n.min + 0
    };
    rtret: return
  }
}

Main(n) {
  m2: ComputeRouting(n);
  mret: return
}
|}
  in
  ignore (Interp.run routing_only t2 []);
  Alcotest.(check bool) "substrate routing = verified traversal routing" true
    (Heap.equal t1 t2)

(* ------------------------------------------------------------------ *)
(* MONA interop                                                         *)

let test_mona_emission () =
  let f =
    Mso.Exists1
      ("x", Mso.And [ Mso.IsNil "x"; Mso.Mem ("x", "X") ])
  in
  let out = Mona.to_mona [ ("X", Mso.SO) ] f in
  let contains frag =
    let ls = String.length out and lf = String.length frag in
    let rec go i = i + lf <= ls && (String.sub out i lf = frag || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ws2s header" true (contains "ws2s;");
  Alcotest.(check bool) "nil fringe" true (contains "var2 $NIL");
  Alcotest.(check bool) "var decl" true (contains "var2 X;");
  Alcotest.(check bool) "ex1" true (contains "(ex1 x:");
  Alcotest.(check bool) "isnil" true (contains "x in $NIL")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "substrates"
    [
      ( "css",
        [
          Alcotest.test_case "parse" `Quick test_css_parse;
          Alcotest.test_case "roundtrip" `Quick test_css_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_css_parse_errors;
          Alcotest.test_case "minify passes" `Quick test_css_minify_passes;
          Alcotest.test_case "idempotent" `Quick test_css_minify_idempotent;
          qt prop_fused_pipeline_agree;
          qt prop_minify_shrinks;
          Alcotest.test_case "lcrs" `Quick test_lcrs;
        ] );
      ( "cycletree",
        [
          Alcotest.test_case "numbering" `Quick test_cycletree_numbering;
          Alcotest.test_case "routing" `Quick test_cycletree_routing;
          Alcotest.test_case "edges" `Quick test_cycletree_edges;
          Alcotest.test_case "matches interpreter" `Quick
            test_cycletree_matches_interp;
        ] );
      ( "mona",
        [
          Alcotest.test_case "emission" `Quick test_mona_emission;
        ] );
    ]
