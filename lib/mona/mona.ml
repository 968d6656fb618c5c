(** File-level interoperability with MONA, the WS2S solver the paper uses
    as its back end.

    This repository ships its own decision procedure ({!Mso} over
    {!Treeauto}), so MONA is not required; this module exists so that the
    generated queries can also be solved by a stock [mona] binary when one
    is available, and so that the encoding can be inspected in a
    well-known exchange format.

    The translation targets MONA's WS2S mode.  The prologue declares a
    second-order variable [$NIL] for the nil positions, whose [where]
    clause admits only sets closed under successors (the paper's isNil
    axiom), and [IsNil x] prints as [x in $NIL].  It also defines the
    reflexive descendant relation [reach], for [AgreeAbove].  Each free
    variable is then declared [var1] or [var2], with no constraint.  WS2S
    sets are finite, and no non-empty finite set is closed under both
    successors, so MONA reads [$NIL] as empty and every [x in $NIL] as
    false, where {!Mso} reads [IsNil x] as "x is a leaf". *)

let keyword_safe v =
  String.map (function ':' | '\'' -> '_' | c -> c) v

let rec pp_formula ppf (f : Mso.formula) =
  let v = keyword_safe in
  match f.node with
  | Mso.True -> Fmt.string ppf "true"
  | Mso.False -> Fmt.string ppf "false"
  | Mso.EmptySet a -> Fmt.pf ppf "empty(%s)" (v a)
  | Mso.Sing (a) ->
    Fmt.pf ppf "(ex1 sing_w: sing_w in %s & (all1 sing_u: sing_u in %s => sing_u = sing_w))"
      (v a) (v a)
  | Mso.Mem (a, b) -> Fmt.pf ppf "%s in %s" (v a) (v b)
  | Mso.EqPos (a, b) -> Fmt.pf ppf "%s = %s" (v a) (v b)
  | Mso.LeftOf (a, b) -> Fmt.pf ppf "%s = %s.0" (v b) (v a)
  | Mso.RightOf (a, b) -> Fmt.pf ppf "%s = %s.1" (v b) (v a)
  | Mso.Root a -> Fmt.pf ppf "%s = root" (v a)
  | Mso.IsNil a -> Fmt.pf ppf "%s in $NIL" (v a)
  | Mso.AgreeAbove (z, strict, incl) ->
    let agree_pair ppf (x, y) =
      Fmt.pf ppf "(agr_v in %s <=> agr_v in %s)" (v x) (v y)
    in
    let agree_conj ppf = function
      | [] -> Fmt.string ppf "true"
      | l -> Fmt.(list ~sep:(any " & ") agree_pair) ppf l
    in
    Fmt.pf ppf
      "(all1 agr_v: (reach(agr_v, %s) => %a) & ((reach(agr_v, %s) & agr_v \
       ~= %s) => %a))"
      (v z) agree_conj incl (v z) (v z) agree_conj strict
  | Mso.Not f -> Fmt.pf ppf "~(%a)" pp_formula f
  | Mso.And fs ->
    Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " & ") pp_formula) fs
  | Mso.Or fs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " | ") pp_formula) fs
  | Mso.Imp (a, b) -> Fmt.pf ppf "(%a => %a)" pp_formula a pp_formula b
  | Mso.Iff (a, b) -> Fmt.pf ppf "(%a <=> %a)" pp_formula a pp_formula b
  | Mso.Exists1 (x, f) ->
    Fmt.pf ppf "(ex1 %s: %a)" (keyword_safe x) pp_formula f
  | Mso.Forall1 (x, f) ->
    Fmt.pf ppf "(all1 %s: %a)" (keyword_safe x) pp_formula f

(** Serialize a satisfiability query to MONA (WS2S) concrete syntax. *)
let to_mona (env : Mso.env) (f : Mso.formula) : string =
  let buf = Buffer.create 4096 in
  let out fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  out "# generated by Retreet\n";
  out "ws2s;\n\n";
  out "# nil fringe: closed under successors (the paper's isNil axiom)\n";
  out "var2 $NIL where all1 nil_v: nil_v in $NIL => (nil_v.0 in $NIL & nil_v.1 in $NIL);\n\n";
  out "# descendant reachability (reflexive)\n";
  out
    "pred reach(var1 rx, var1 ry) = all2 RZ: (rx in RZ & (all1 rw: rw in RZ \
     => (rw.0 in RZ & rw.1 in RZ))) => ry in RZ;\n\n";
  List.iter
    (fun (v, kind) ->
      match kind with
      | Mso.FO -> out "var1 %s;\n" (keyword_safe v)
      | Mso.SO -> out "var2 %s;\n" (keyword_safe v))
    env;
  out "\n%a;\n" pp_formula f;
  Buffer.contents buf

let write_mona ~path env f =
  let oc = open_out path in
  output_string oc (to_mona env f);
  close_out oc
