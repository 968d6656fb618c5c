(* Canonical concrete-syntax printer.  The inverse of [Parser] on the
   canonical fragment (see pretty.mli); every printing rule below is paired
   with the parser rule that undoes it. *)

let lexpr loc (le : Ast.lexpr) =
  let b = Buffer.create 8 in
  Buffer.add_string b loc;
  List.iter
    (fun d -> Buffer.add_string b (match d with Ast.L -> ".l" | Ast.R -> ".r"))
    le;
  Buffer.contents b

(* [parse_aexpr] folds a left spine of [+]/[-] over terms, so the left
   operand prints bare and the right operand is parenthesised unless it is
   already a term.  Negative literals print as [(0 - k)]; they reparse to
   [Sub (Num 0, Num k)], which is why canonical ASTs exclude them. *)
let rec aexpr loc = function
  | Ast.Num k when k >= 0 -> string_of_int k
  | Ast.Num k -> Printf.sprintf "(0 - %d)" (-k)
  | Ast.Var x -> x
  | Ast.Field (le, f) -> lexpr loc le ^ "." ^ f
  | Ast.Add (a, b) -> aexpr loc a ^ " + " ^ term loc b
  | Ast.Sub (a, b) -> aexpr loc a ^ " - " ^ term loc b

and term loc = function
  | (Ast.Var _ | Ast.Field _) as e -> aexpr loc e
  | Ast.Num k when k >= 0 -> string_of_int k
  | e -> "(" ^ aexpr loc e ^ ")"

(* Comparisons reparse through [parse_comparison]: [a > b] yields exactly
   [Gt0 (Sub (a, b))], so that shape prints as [>].  A bare [Gt0 e] (not
   produced by the parser) falls back to [e > 0], which reparses to
   [Gt0 (Sub (e, Num 0))] — hence non-canonical. *)
let rec bexpr loc = function
  | Ast.BTrue -> "true"
  | Ast.IsNilB le -> lexpr loc le ^ " == nil"
  | Ast.NotB (Ast.IsNilB le) -> lexpr loc le ^ " != nil"
  | Ast.NotB b -> "!" ^ bexpr loc b
  | Ast.Gt0 (Ast.Sub (a, b)) -> aexpr loc a ^ " > " ^ aexpr loc b
  | Ast.Gt0 e -> aexpr loc e ^ " > 0"

let assign loc = function
  | Ast.SetField (le, f, e) -> lexpr loc le ^ "." ^ f ^ " = " ^ aexpr loc e
  | Ast.SetVar (x, e) -> x ^ " = " ^ aexpr loc e
  | Ast.Return [] -> "return"
  | Ast.Return es ->
    "return " ^ String.concat ", " (List.map (aexpr loc) es)

let call loc { Ast.lhs; callee; target; args } =
  let lhs_s =
    match lhs with
    | [] -> ""
    | [ x ] -> x ^ " = "
    | xs -> "(" ^ String.concat ", " xs ^ ") = "
  in
  lhs_s ^ callee ^ "("
  ^ lexpr loc target
  ^ String.concat "" (List.map (fun a -> ", " ^ aexpr loc a) args)
  ^ ")"

let label_s = function Some l -> l ^ ": " | None -> ""

(* The parser builds [SSeq]/[SPar] left-nested, so flattening the left
   spine and re-printing with [;] / [||] separators is the exact inverse. *)
let rec seq_items = function
  | Ast.SSeq (a, b) -> seq_items a @ [ b ]
  | s -> [ s ]

let rec par_arms = function
  | Ast.SPar (a, b) -> par_arms a @ [ b ]
  | s -> [ s ]

let rec pr_item buf loc ind = function
  | Ast.SBlock (l, Ast.Call c) ->
    Buffer.add_string buf (ind ^ label_s l ^ call loc c)
  | Ast.SBlock (l, Ast.Straight assigns) ->
    (* Label on the first assignment only: the parser re-merges the
       following unlabelled assignments into this block. *)
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf (";\n");
        Buffer.add_string buf
          (ind ^ (if i = 0 then label_s l else "") ^ assign loc a))
      assigns
  | Ast.SIf (c, s1, s2) ->
    Buffer.add_string buf (ind ^ "if (" ^ bexpr loc c ^ ") {\n");
    pr_seq buf loc (ind ^ "  ") s1;
    Buffer.add_string buf ("\n" ^ ind ^ "} else {\n");
    pr_seq buf loc (ind ^ "  ") s2;
    Buffer.add_string buf ("\n" ^ ind ^ "}")
  | Ast.SPar _ as p ->
    let arms = par_arms p in
    Buffer.add_string buf (ind ^ "{\n");
    List.iteri
      (fun i arm ->
        if i > 0 then Buffer.add_string buf ("\n" ^ ind ^ "||\n");
        pr_seq buf loc (ind ^ "  ") arm)
      arms;
    Buffer.add_string buf ("\n" ^ ind ^ "}")
  | Ast.SSeq _ -> assert false (* flattened by [seq_items] *)

and pr_seq buf loc ind s =
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_string buf ";\n";
      pr_item buf loc ind item)
    (seq_items s)

let print_func (f : Ast.func) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (f.Ast.fname ^ "("
    ^ String.concat ", " (f.Ast.loc_param :: f.Ast.int_params)
    ^ ") {\n");
  pr_seq buf f.Ast.loc_param "  " f.Ast.body;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let print_prog (p : Ast.prog) =
  String.concat "\n" (List.map print_func p.Ast.funcs)

(* Structural equality that ignores [fline]; labels count. *)
let equal_func (a : Ast.func) (b : Ast.func) =
  a.Ast.fname = b.Ast.fname
  && a.Ast.loc_param = b.Ast.loc_param
  && a.Ast.int_params = b.Ast.int_params
  && a.Ast.body = b.Ast.body

let equal_prog (a : Ast.prog) (b : Ast.prog) =
  List.length a.Ast.funcs = List.length b.Ast.funcs
  && List.for_all2 equal_func a.Ast.funcs b.Ast.funcs
