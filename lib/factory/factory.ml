(* Scenario factory: random traversal programs with verdicts known by
   construction.  See factory.mli for the ground-truth arguments; every
   comment of the form "truth:" below is one of them. *)

type family = Syn | Css
type kind = Par_clean | Par_racy | Fuse_valid | Fuse_broken

let kind_name = function
  | Par_clean -> "par_clean"
  | Par_racy -> "par_racy"
  | Fuse_valid -> "fuse_valid"
  | Fuse_broken -> "fuse_broken"

let family_name = function Syn -> "syn" | Css -> "css"

type syn_trav = {
  t_mutual : bool;
  t_reader : bool;
  t_pre : bool;
  t_guard : int option;
  t_param : bool;
  t_delta : int;
  t_rl : bool;
}

type syn_pass = {
  p_acc : bool;
  p_right : bool;
  p_guard : int option;
  p_delta : int;
}

type css_guard = GKind | GProp | GValue of int

type css_pass = { c_guard : css_guard option; c_delta : int }

type sheet = (int * (int * int) list) list

type shape =
  | Syn_par of { a : syn_trav; b : syn_trav }
  | Syn_fuse of { passes : syn_pass list }
  | Css_par of { sheet : sheet; writer_guard : css_guard option }
  | Css_fuse of { sheet : sheet; passes : css_pass list }

type scenario = {
  sc_kind : kind;
  sc_family : family;
  sc_shape : shape;
  sc_source : string;
  sc_sibling : string option;
  sc_map : (string * string) list;
  sc_css : string option;
  sc_expect_race : [ `Free | `Racy ];
  sc_expect_equiv : [ `Equivalent | `Conflict ] option;
}

(* ------------------------------------------------------------------ *)
(* AST construction helpers                                            *)

let seq = function
  | [] -> invalid_arg "Factory.seq: empty"
  | s :: rest -> List.fold_left (fun a b -> Ast.SSeq (a, b)) s rest

let straight ?label assigns = Ast.SBlock (label, Ast.Straight assigns)

let callb ?label ?(lhs = []) callee target args =
  Ast.SBlock (label, Ast.Call { Ast.lhs; callee; target; args })

let fld ?(path = []) f = Ast.Field (path, f)

(* [e > c], in the shape [parse_comparison] produces. *)
let gt e c = Ast.Gt0 (Ast.Sub (e, Ast.Num c))

let func fname ?(int_params = []) body =
  { Ast.fname; fline = 0; loc_param = "n"; int_params; body }

(* ------------------------------------------------------------------ *)
(* Synthetic parallel traversals                                       *)

(* One traversal rooted at [entry] over its own fields [primary]/
   [secondary]; [sab_field], used by the racy sabotage, retargets the
   unconditional write onto another traversal's primary field. *)
let syn_trav_funcs ~entry ~pfx ~primary ~secondary ~(t : syn_trav)
    ~(sab_field : string option) : Ast.func list =
  let params = if t.t_param then [ "k" ] else [] in
  let call_args =
    if t.t_param then [ Ast.Add (Ast.Var "k", Ast.Num 1) ] else []
  in
  let d = t.t_delta in
  let one ~fname ~callee ~pfx =
    let c1 = callb ~label:(pfx ^ "1")
        ~lhs:(if t.t_reader then [ "x" ] else [])
        callee [ Ast.L ] call_args
    and c2 = callb ~label:(pfx ^ "2")
        ~lhs:(if t.t_reader then [ "y" ] else [])
        callee [ Ast.R ] call_args
    in
    let calls = if t.t_rl then [ c2; c1 ] else [ c1; c2 ] in
    let body =
      if t.t_reader then
        (* truth: an unconditional read of [primary] at every node *)
        let sum =
          let base = Ast.Add (Ast.Add (Ast.Var "x", Ast.Var "y"), fld primary) in
          if t.t_param then Ast.Add (base, Ast.Var "k") else base
        in
        Ast.SIf
          ( Ast.IsNilB [],
            straight ~label:(pfx ^ "nil") [ Ast.Return [ Ast.Num 0 ] ],
            seq (calls @ [ straight ~label:(pfx ^ "ret") [ Ast.Return [ sum ] ] ])
          )
      else begin
        (* truth: an unconditional write of [wfield] at every node *)
        let wfield = Option.value sab_field ~default:primary in
        let pre =
          if t.t_pre then
            [ straight ~label:(pfx ^ "pre")
                [ Ast.SetField ([], primary, Ast.Add (fld primary, Ast.Num d)) ]
            ]
          else []
        in
        let post =
          match t.t_guard with
          | None ->
            [ straight ~label:(pfx ^ "set")
                [ Ast.SetField ([], wfield, Ast.Add (fld wfield, Ast.Num d));
                  Ast.Return [] ]
            ]
          | Some c ->
            [ straight ~label:(pfx ^ "set")
                [ Ast.SetField ([], wfield, Ast.Add (fld wfield, Ast.Num d)) ];
              Ast.SIf
                ( gt (fld secondary) c,
                  straight ~label:(pfx ^ "g")
                    [ Ast.SetField
                        ([], secondary, Ast.Add (fld primary, Ast.Num d));
                      Ast.Return [] ],
                  straight ~label:(pfx ^ "s") [ Ast.Return [] ] )
            ]
        in
        Ast.SIf
          ( Ast.IsNilB [],
            straight ~label:(pfx ^ "nil") [ Ast.Return [] ],
            seq (pre @ calls @ post) )
      end
    in
    func fname ~int_params:params body
  in
  if t.t_mutual then
    let partner = entry ^ "2" in
    [ one ~fname:entry ~callee:partner ~pfx;
      one ~fname:partner ~callee:entry ~pfx:(pfx ^ "m") ]
  else [ one ~fname:entry ~callee:entry ~pfx ]

let build_syn_par ~(racy : bool) ~(a : syn_trav) ~(b : syn_trav) : Ast.prog =
  (* the racy sabotage retargets an unconditional write, so the sabotaged
     traversal must be a writer *)
  let b = if racy then { b with t_reader = false } else b in
  let fa =
    syn_trav_funcs ~entry:"Alpha" ~pfx:"a" ~primary:"a0" ~secondary:"a1" ~t:a
      ~sab_field:None
  in
  let fb =
    syn_trav_funcs ~entry:"Beta" ~pfx:"b" ~primary:"b0" ~secondary:"b1" ~t:b
      ~sab_field:(if racy then Some "a0" else None)
  in
  let arm0 =
    callb ~label:"m0"
      ~lhs:(if a.t_reader then [ "x" ] else [])
      "Alpha" []
      (if a.t_param then [ Ast.Num 1 ] else [])
  and arm1 =
    callb ~label:"m1"
      ~lhs:(if b.t_reader then [ "y" ] else [])
      "Beta" []
      (if b.t_param then [ Ast.Num 1 ] else [])
  in
  let rets =
    (if a.t_reader then [ Ast.Var "x" ] else [])
    @ if b.t_reader then [ Ast.Var "y" ] else []
  in
  let main =
    func "Main"
      (Ast.SSeq (Ast.SPar (arm0, arm1), straight ~label:"mret" [ Ast.Return rets ]))
  in
  { Ast.funcs = fa @ fb @ [ main ] }

(* ------------------------------------------------------------------ *)
(* Synthetic fusable passes                                            *)

(* A post-order unit pass in exactly the shape [Transform.as_fusable]
   accepts: nil test, two self-recursive calls, one call-free tail. *)
let syn_pass_func i (p : syn_pass) : Ast.func =
  let name = Printf.sprintf "Pass%d" i in
  let f = Printf.sprintf "f%d" i and g = Printf.sprintf "g%d" i in
  let pfx = Printf.sprintf "p%d" i in
  let d = p.p_delta in
  let tail =
    if p.p_acc then
      (* truth (broken fusion): reads the child's copy of its own output
         field, so hoisting this tail above the recursive calls flips a
         read-after-write into a read-before-write at every inner node *)
      let dir = if p.p_right then Ast.R else Ast.L in
      Ast.SIf
        ( Ast.IsNilB [ dir ],
          straight ~label:(pfx ^ "leaf")
            [ Ast.SetField ([], f, Ast.Num d); Ast.Return [] ],
          straight ~label:(pfx ^ "step")
            [ Ast.SetField ([], f, Ast.Add (Ast.Field ([ dir ], f), Ast.Num d));
              Ast.Return [] ] )
    else
      match p.p_guard with
      | None ->
        straight ~label:(pfx ^ "set")
          [ Ast.SetField ([], f, Ast.Add (fld f, Ast.Num d)); Ast.Return [] ]
      | Some c ->
        Ast.SIf
          ( gt (fld g) c,
            straight ~label:(pfx ^ "set")
              [ Ast.SetField ([], f, Ast.Sub (fld f, Ast.Num d));
                Ast.Return [] ],
            straight ~label:(pfx ^ "skip") [ Ast.Return [] ] )
  in
  let c1 = callb ~label:(pfx ^ "a") name [ Ast.L ] []
  and c2 = callb ~label:(pfx ^ "b") name [ Ast.R ] [] in
  func name
    (Ast.SIf
       ( Ast.IsNilB [],
         straight ~label:(pfx ^ "nil") [ Ast.Return [] ],
         seq [ c1; c2; tail ] ))

let fuse_main names =
  func "Main"
    (seq
       (List.mapi (fun i n -> callb ~label:(Printf.sprintf "m%d" i) n [] []) names
       @ [ straight ~label:"mret" [ Ast.Return [] ] ]))

(* Dependence-breaking reorder: hoist the tail of pass [acc_idx] above
   the fused recursive calls.  The map is unchanged — labels survive. *)
let break_fused ~acc_idx (fused : Ast.prog) : Ast.prog =
  let rec items = function
    | Ast.SSeq (a, b) -> items a @ [ b ]
    | s -> [ s ]
  in
  let sab (f : Ast.func) =
    if f.Ast.fname <> "Fused" then f
    else
      match f.Ast.body with
      | Ast.SIf (c, nilb, els) ->
        (match items els with
        | call1 :: call2 :: tails when List.length tails > acc_idx ->
          let moved = List.nth tails acc_idx in
          let rest = List.filteri (fun i _ -> i <> acc_idx) tails in
          { f with Ast.body = Ast.SIf (c, nilb, seq ((moved :: call1 :: call2 :: rest))) }
        | _ -> invalid_arg "Factory.break_fused: unexpected fused shape")
      | _ -> invalid_arg "Factory.break_fused: unexpected fused body"
  in
  { Ast.funcs = List.map sab fused.Ast.funcs }

let build_syn_fuse ~(broken : bool) ~(passes : syn_pass list) :
    Ast.prog * Ast.prog * (string * string) list =
  let passes = if passes = [] then [ { p_acc = true; p_right = false; p_guard = None; p_delta = 1 } ] else passes in
  (* a broken fusion needs an accumulator pass to reorder *)
  let passes =
    if broken && not (List.exists (fun p -> p.p_acc) passes) then
      match passes with
      | p :: rest -> { p with p_acc = true } :: rest
      | [] -> assert false
    else passes
  in
  let funcs = List.mapi syn_pass_func passes in
  let names = List.map (fun (f : Ast.func) -> f.Ast.fname) funcs in
  let prog = { Ast.funcs = funcs @ [ fuse_main names ] } in
  match Transform.fuse prog names with
  | Error e -> invalid_arg ("Factory: generated passes not fusable: " ^ e)
  | Ok (fused, map) ->
    let sibling =
      if broken then
        let acc_idx =
          match List.find_index (fun p -> p.p_acc) passes with
          | Some i -> i
          | None -> assert false
        in
        break_fused ~acc_idx fused
      else fused
    in
    (prog, sibling, map)

(* ------------------------------------------------------------------ *)
(* CSS family                                                          *)

let css_selectors =
  [| "body"; "p"; "div"; "a"; ".nav"; ".card"; "#main"; ".footer" |]

let css_props =
  [| "margin"; "padding"; "font-weight"; "font-size"; "border-width";
     "line-height" |]

let css_values =
  [| "0"; "4px"; "8px"; "12px"; "1em"; "2em"; "normal"; "bold"; "initial";
     "24px" |]

let render_sheet (sheet : sheet) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun (sel, decls) ->
      Buffer.add_string buf
        (css_selectors.(sel mod Array.length css_selectors) ^ " {\n");
      List.iter
        (fun (p, v) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s: %s;\n"
               css_props.(p mod Array.length css_props)
               css_values.(v mod Array.length css_values)))
        decls;
      Buffer.add_string buf "}\n")
    sheet;
  Buffer.contents buf

let css_guard_cond = function
  | GKind -> gt (fld "kind") 0
  | GProp -> gt (fld "prop") 0
  | GValue c -> gt (fld "value") c

(* The value-shrinking writer of the bundled E5 study, one pass. *)
let css_pass_func ~name ~pfx (p : css_pass) : Ast.func =
  let set =
    straight ~label:(pfx ^ "set")
      [ Ast.SetField ([], "value", Ast.Sub (fld "value", Ast.Num p.c_delta));
        Ast.Return [] ]
  in
  let tail =
    match p.c_guard with
    | None -> set
    | Some g ->
      Ast.SIf (css_guard_cond g, set,
               straight ~label:(pfx ^ "skip") [ Ast.Return [] ])
  in
  let c1 = callb ~label:(pfx ^ "a") name [ Ast.L ] []
  and c2 = callb ~label:(pfx ^ "b") name [ Ast.R ] [] in
  func name
    (Ast.SIf
       ( Ast.IsNilB [],
         straight ~label:(pfx ^ "nil") [ Ast.Return [] ],
         seq [ c1; c2; tail ] ))

let build_css_par ~(racy : bool) ~(writer_guard : css_guard option) : Ast.prog =
  (* truth (racy): the census gains an unconditional write to [value],
     which the writer also touches unconditionally — a race at every
     node, confirmed by replay on any witness.  For the clean variant the
     writer may be guarded; it still only touches [value] while the
     census only reads [kind]. *)
  let writer_guard = if racy then None else writer_guard in
  let shrink =
    css_pass_func ~name:"Shrink" ~pfx:"w"
      { c_guard = writer_guard; c_delta = 1 }
  in
  let census =
    let sab =
      if racy then
        [ straight ~label:"csab"
            [ Ast.SetField ([], "value", Ast.Add (fld "value", Ast.Num 1)) ] ]
      else []
    in
    func "Census"
      (Ast.SIf
         ( Ast.IsNilB [],
           straight ~label:"cnil" [ Ast.Return [ Ast.Num 0 ] ],
           seq
             ([ callb ~label:"ca" ~lhs:[ "x" ] "Census" [ Ast.L ] [];
                callb ~label:"cb" ~lhs:[ "y" ] "Census" [ Ast.R ] [] ]
             @ sab
             @ [ straight ~label:"cret"
                   [ Ast.Return
                       [ Ast.Add (Ast.Add (Ast.Var "x", Ast.Var "y"), fld "kind") ]
                   ] ]) ))
  in
  let main =
    func "Main"
      (Ast.SSeq
         ( Ast.SPar
             ( callb ~label:"m0" "Shrink" [] [],
               callb ~label:"m1" ~lhs:[ "t" ] "Census" [] [] ),
           straight ~label:"mret" [ Ast.Return [ Ast.Var "t" ] ] ))
  in
  { Ast.funcs = [ shrink; census; main ] }

let css_pass_names = [| "PassA"; "PassB"; "PassC"; "PassD" |]

let build_css_fuse ~(broken : bool) ~(passes : css_pass list) :
    Ast.prog * Ast.prog * (string * string) list =
  let passes =
    match passes with
    | [] | [ _ ] ->
      [ { c_guard = None; c_delta = 3 }; { c_guard = Some (GValue 1); c_delta = 1 } ]
    | ps -> ps
  in
  (* truth (broken): swapping an unconditional [value -= d] below the
     guarded write it feeds changes the verdict of [value > c] exactly on
     the window (c, c+d] — kept wide (d >= 3) and low (c <= 2) so the
     concrete probe trees Validate replays on (field values 0..11) hit it
     with near certainty. *)
  let passes =
    if broken then
      match passes with
      | p0 :: p1 :: rest ->
        { c_guard = None; c_delta = max 3 p0.c_delta }
        :: { p1 with c_guard = Some (GValue (match p1.c_guard with Some (GValue c) -> min c 2 | _ -> 1)) }
        :: rest
      | _ -> assert false
    else passes
  in
  let passes = List.filteri (fun i _ -> i < Array.length css_pass_names) passes in
  let funcs =
    List.mapi
      (fun i p ->
        css_pass_func ~name:css_pass_names.(i)
          ~pfx:(Printf.sprintf "q%d" i) p)
      passes
  in
  let names = List.map (fun (f : Ast.func) -> f.Ast.fname) funcs in
  let prog = { Ast.funcs = funcs @ [ fuse_main names ] } in
  match Transform.fuse prog names with
  | Error e -> invalid_arg ("Factory: generated CSS passes not fusable: " ^ e)
  | Ok (fused, map) ->
    let sibling =
      if broken then
        (* swap the first two tails of the fused else branch *)
        let rec items = function
          | Ast.SSeq (a, b) -> items a @ [ b ]
          | s -> [ s ]
        in
        let sab (f : Ast.func) =
          if f.Ast.fname <> "Fused" then f
          else
            match f.Ast.body with
            | Ast.SIf (c, nilb, els) ->
              (match items els with
              | c1 :: c2 :: t0 :: t1 :: rest ->
                { f with Ast.body = Ast.SIf (c, nilb, seq (c1 :: c2 :: t1 :: t0 :: rest)) }
              | _ -> invalid_arg "Factory: unexpected fused CSS shape")
            | _ -> invalid_arg "Factory: unexpected fused CSS body"
        in
        { Ast.funcs = List.map sab fused.Ast.funcs }
      else fused
    in
    (prog, sibling, map)

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)

(* Construction invariants: every emitted source reparses exactly under
   the canonical printer and is well-formed.  Violations are factory
   bugs; the qcheck suite drives this over the whole shape space. *)
let check_canonical (prog : Ast.prog) : string =
  let src = Pretty.print_prog prog in
  (match Parser.parse_program src with
  | p ->
    if not (Pretty.equal_prog prog p) then
      invalid_arg ("Factory: print/reparse changed the program:\n" ^ src)
  | exception (Parser.Error e | Lexer.Error e) ->
    invalid_arg ("Factory: emitted source fails to parse: " ^ e ^ "\n" ^ src));
  (match Wf.check prog with
  | Ok _ -> ()
  | Error es ->
    invalid_arg
      ("Factory: emitted program ill-formed: " ^ String.concat "; " es ^ "\n"
     ^ src));
  src

let build (kind : kind) (shape : shape) : scenario =
  let mk ~family ~shape ~source ?sibling ?(map = []) ?css ~race ~equiv () =
    {
      sc_kind = kind;
      sc_family = family;
      sc_shape = shape;
      sc_source = check_canonical source;
      sc_sibling = Option.map check_canonical sibling;
      sc_map = map;
      sc_css = css;
      sc_expect_race = race;
      sc_expect_equiv = equiv;
    }
  in
  match (kind, shape) with
  | (Par_clean | Par_racy), Syn_par { a; b } ->
    let racy = kind = Par_racy in
    let b = if racy then { b with t_reader = false } else b in
    let shape = Syn_par { a; b } in
    mk ~family:Syn ~shape
      ~source:(build_syn_par ~racy ~a ~b)
      ~race:(if racy then `Racy else `Free)
      ~equiv:None ()
  | (Fuse_valid | Fuse_broken), Syn_fuse { passes } ->
    let broken = kind = Fuse_broken in
    let prog, sibling, map = build_syn_fuse ~broken ~passes in
    mk ~family:Syn ~shape:(Syn_fuse { passes }) ~source:prog ~sibling ~map
      ~race:`Free
      ~equiv:(Some (if broken then `Conflict else `Equivalent))
      ()
  | (Par_clean | Par_racy), Css_par { sheet; writer_guard } ->
    let racy = kind = Par_racy in
    let writer_guard = if racy then None else writer_guard in
    mk ~family:Css
      ~shape:(Css_par { sheet; writer_guard })
      ~source:(build_css_par ~racy ~writer_guard)
      ~css:(render_sheet sheet)
      ~race:(if racy then `Racy else `Free)
      ~equiv:None ()
  | (Fuse_valid | Fuse_broken), Css_fuse { sheet; passes } ->
    let broken = kind = Fuse_broken in
    let prog, sibling, map = build_css_fuse ~broken ~passes in
    mk ~family:Css ~shape:(Css_fuse { sheet; passes }) ~source:prog ~sibling
      ~map ~css:(render_sheet sheet) ~race:`Free
      ~equiv:(Some (if broken then `Conflict else `Equivalent))
      ()
  | _, _ -> invalid_arg "Factory.build: kind does not fit shape"

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let gen_syn_trav rng : syn_trav =
  {
    t_mutual = Random.State.bool rng;
    t_reader = Random.State.bool rng;
    t_pre = Random.State.bool rng;
    t_guard =
      (if Random.State.bool rng then None
       else Some (Random.State.int rng 4));
    t_param = Random.State.int rng 4 = 0;
    t_delta = 1 + Random.State.int rng 3;
    t_rl = Random.State.bool rng;
  }

let gen_syn_pass rng : syn_pass =
  let acc = Random.State.int rng 3 = 0 in
  {
    p_acc = acc;
    p_right = Random.State.bool rng;
    p_guard =
      (if acc || Random.State.bool rng then None
       else Some (Random.State.int rng 4));
    p_delta = 1 + Random.State.int rng 3;
  }

let gen_css_guard rng : css_guard option =
  match Random.State.int rng 4 with
  | 0 -> None
  | 1 -> Some GKind
  | 2 -> Some GProp
  | _ -> Some (GValue (1 + Random.State.int rng 5))

let gen_css_pass rng : css_pass =
  { c_guard = gen_css_guard rng; c_delta = 1 + Random.State.int rng 3 }

let gen_sheet rng : sheet =
  let nrules = 1 + Random.State.int rng 4 in
  List.init nrules (fun _ ->
      let sel = Random.State.int rng (Array.length css_selectors) in
      let ndecls = 1 + Random.State.int rng 4 in
      ( sel,
        List.init ndecls (fun _ ->
            ( Random.State.int rng (Array.length css_props),
              Random.State.int rng (Array.length css_values) )) ))

(* A weighted random kind and a shape that fits it. *)
let gen_shape rng : kind * shape =
  let kind =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> Par_clean
    | 3 | 4 -> Par_racy
    | 5 | 6 | 7 -> Fuse_valid
    | _ -> Fuse_broken
  in
  let css = Random.State.int rng 5 < 2 in
  let shape =
    match (kind, css) with
    | (Par_clean | Par_racy), false ->
      Syn_par { a = gen_syn_trav rng; b = gen_syn_trav rng }
    | (Fuse_valid | Fuse_broken), false ->
      let n = 1 + Random.State.int rng 2 in
      let base = List.init n (fun _ -> gen_syn_pass rng) in
      (* keep at least one accumulator around so valid and broken
         fusions exercise the same pass vocabulary *)
      let base =
        if List.exists (fun p -> p.p_acc) base then base
        else
          { (gen_syn_pass rng) with p_acc = true; p_guard = None } :: base
      in
      Syn_fuse { passes = base }
    | (Par_clean | Par_racy), true ->
      Css_par { sheet = gen_sheet rng; writer_guard = gen_css_guard rng }
    | (Fuse_valid | Fuse_broken), true ->
      let n = 2 + Random.State.int rng 2 in
      Css_fuse { sheet = gen_sheet rng; passes = List.init n (fun _ -> gen_css_pass rng) }
  in
  (kind, shape)

let gen_scenario rng : scenario =
  let kind, shape = gen_shape rng in
  build kind shape

let sample ~seed ~count : scenario list =
  let rng = Random.State.make [| 0x5ca1e; seed |] in
  List.init count (fun _ -> gen_scenario rng)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let shrink_syn_trav (t : syn_trav) : syn_trav list =
  List.filter
    (fun t' -> t' <> t)
    [
      { t with t_mutual = false };
      { t with t_pre = false };
      { t with t_guard = None };
      { t with t_param = false };
      { t with t_rl = false };
      { t with t_delta = 1 };
    ]

let shrink_syn_pass (p : syn_pass) : syn_pass list =
  List.filter
    (fun p' -> p' <> p)
    [
      { p with p_guard = None };
      { p with p_right = false };
      { p with p_delta = 1 };
    ]

let shrink_css_pass (p : css_pass) : css_pass list =
  List.filter
    (fun p' -> p' <> p)
    [ { p with c_guard = None }; { p with c_delta = 1 } ]

(* Candidates for removing or shrinking one list element. *)
let shrink_list shrink_elt xs =
  let drops =
    if List.length xs <= 1 then []
    else List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs
  in
  let shrunk =
    List.concat
      (List.mapi
         (fun i x ->
           List.map
             (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
             (shrink_elt x))
         xs)
  in
  drops @ shrunk

let shrink_sheet (s : sheet) : sheet list =
  shrink_list
    (fun (sel, decls) ->
      (if sel <> 0 then [ (0, decls) ] else [])
      @ List.map (fun d -> (sel, d)) (shrink_list (fun _ -> []) decls))
    s

let shrink_shape : shape -> shape list = function
  | Syn_par { a; b } ->
    List.map (fun a' -> Syn_par { a = a'; b }) (shrink_syn_trav a)
    @ List.map (fun b' -> Syn_par { a; b = b' }) (shrink_syn_trav b)
  | Syn_fuse { passes } ->
    List.map (fun ps -> Syn_fuse { passes = ps }) (shrink_list shrink_syn_pass passes)
  | Css_par { sheet; writer_guard } ->
    (if writer_guard <> None then [ Css_par { sheet; writer_guard = None } ]
     else [])
    @ List.map (fun s -> Css_par { sheet = s; writer_guard }) (shrink_sheet sheet)
  | Css_fuse { sheet; passes } ->
    List.map (fun ps -> Css_fuse { sheet; passes = ps }) (shrink_list shrink_css_pass passes)
    @ List.map (fun s -> Css_fuse { sheet = s; passes }) (shrink_sheet sheet)

let scenario_size (sc : scenario) : int =
  String.length sc.sc_source
  + match sc.sc_sibling with Some s -> String.length s | None -> 0
