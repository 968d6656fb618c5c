(** A coarse-grained dependence analysis in the style of the frameworks
    Retreet is compared against (TreeFuser, attribute-grammar fusers):
    dependences are tracked per {e traversal} at {e field} granularity,
    without distinguishing which node an access touches or which iteration
    performs it.

    Its purpose in this repository is the precision baseline of the
    evaluation: the qualitative claim of the paper is that such analyses
    (i) cannot represent mutually recursive traversals at all, and
    (ii) reject valid transformations whenever two traversals touch the
    same field, because they cannot see that the accesses are ordered the
    same way at every node.  Retreet's instance-wise analysis accepts
    them. *)

type verdict =
  | Allowed
  | Rejected of string  (** the conflicting field *)
  | Unsupported of string  (** why the traversal cannot be represented *)

let pp_verdict ppf = function
  | Allowed -> Fmt.string ppf "allowed"
  | Rejected f -> Fmt.pf ppf "rejected (conflict on field %s)" f
  | Unsupported why -> Fmt.pf ppf "unsupported (%s)" why

exception Unknown_traversal of string

(* The function a traversal name denotes.  An unknown name is an error:
   read as a traversal with no accesses, it would make any transformation
   look legal. *)
let func (prog : Ast.prog) (name : string) : Ast.func =
  match Ast.find_func prog name with
  | Some fn -> fn
  | None -> raise (Unknown_traversal name)

(* Transitive callees of a function. *)
let callees_of (prog : Ast.prog) (name : string) : string list =
  let rec walk_stmt acc = function
    | Ast.SBlock (_, Ast.Call c) -> c.callee :: acc
    | Ast.SBlock _ -> acc
    | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
      walk_stmt (walk_stmt acc a) b
  in
  let rec close seen frontier =
    match frontier with
    | [] -> seen
    | f :: rest ->
      if List.mem f seen then close seen rest
      else close (f :: seen) (walk_stmt [] (func prog f).body @ rest)
  in
  close [] [ name ]

(** The traversal family rooted at a function: itself plus every function
    it can transitively call. *)
let family prog name = List.sort_uniq String.compare (callees_of prog name)

(* Field read/write sets of a whole traversal family, node-insensitive. *)
let field_sets (prog : Ast.prog) (name : string) :
    string list * string list =
  let reads = ref [] and writes = ref [] in
  let add_aexpr e =
    List.iter (fun (_, f) -> reads := f :: !reads) (Ast.aexpr_fields e)
  in
  let add_cond c =
    List.iter (fun (_, f) -> reads := f :: !reads) (Ast.bexpr_fields c)
  in
  let rec walk = function
    | Ast.SBlock (_, Ast.Call c) -> List.iter add_aexpr c.args
    | Ast.SBlock (_, Ast.Straight assigns) ->
      List.iter
        (function
          | Ast.SetField (_, f, e) ->
            writes := f :: !writes;
            add_aexpr e
          | Ast.SetVar (_, e) -> add_aexpr e
          | Ast.Return es -> List.iter add_aexpr es)
        assigns
    | Ast.SIf (c, a, b) ->
      add_cond c;
      walk a;
      walk b
    | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
      walk a;
      walk b
  in
  List.iter (fun f -> walk (func prog f).body) (family prog name);
  ( List.sort_uniq String.compare !reads,
    List.sort_uniq String.compare !writes )

(* The representability restriction of the baseline frameworks: a single
   self-recursive traversal; mutual recursion is out of scope. *)
let representable (prog : Ast.prog) (name : string) : (unit, string) result =
  match family prog name with
  | [ single ] when single = name -> Ok ()
  | fam when List.length fam > 1 ->
    Error
      (Printf.sprintf "mutual recursion between %s"
         (String.concat ", " fam))
  | _ -> Ok ()

let conflict (r1, w1) (r2, w2) : string option =
  let hit xs ys = List.find_opt (fun x -> List.mem x ys) xs in
  match hit w1 (r2 @ w2) with
  | Some f -> Some f
  | None -> hit w2 (r1 @ w1)

(** Can the two traversals be fused, according to the coarse analysis?
    Any shared field with a write is a (node-insensitive) dependence, which
    the baseline must conservatively refuse to reorder. *)
let can_fuse (prog : Ast.prog) (a : string) (b : string) : verdict =
  (* [a] first, so an unknown [a] is the one reported. *)
  let ra = representable prog a in
  match (ra, representable prog b) with
  | Error why, _ | _, Error why -> Unsupported why
  | Ok (), Ok () -> (
    match conflict (field_sets prog a) (field_sets prog b) with
    | Some f -> Rejected f
    | None -> Allowed)

(** Can the two traversals run in parallel, according to the coarse
    analysis?  Same conflict criterion. *)
let can_parallelize = can_fuse
