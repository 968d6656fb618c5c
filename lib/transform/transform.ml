(** Source-to-source transformations over Retreet programs.

    {e Fusion} of sequentially composed traversals into a single traversal
    produces the transformed program together with the non-call block map
    that aligns it with the original, which is exactly what
    [Analysis.check_equivalence] needs; the framework then proves or
    refutes the transformation.

    Fusion covers the classic post-order shape (the paper's tree-mutation
    and CSS case studies):
    {v
    F(n) { if (n == nil) { nilF } else { F(n.l); F(n.r); tailF } }
    v}
    where [tailF] is any call-free statement.  Fusing [F1; ...; Fk] yields
    one traversal performing [tail1; ...; tailk] at every node. *)

type error = string

(* A traversal eligible for post-order fusion. *)
type fusable = {
  func : Ast.func;
  nil_label : string option;
  nil_block : Ast.block;
  tail : Ast.stmt;  (** call-free work after the two recursive calls *)
}

let rec stmt_has_calls = function
  | Ast.SBlock (_, Ast.Call _) -> true
  | Ast.SBlock (_, Ast.Straight _) -> false
  | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
    stmt_has_calls a || stmt_has_calls b

(* Recognize [F(n) { if (n == nil) { <nil> } else { F(n.l); F(n.r); tail } }]. *)
let as_fusable (prog : Ast.prog) (name : string) : (fusable, error) result =
  match Ast.find_func prog name with
  | None -> Error (Printf.sprintf "no function %s" name)
  | Some func -> (
    match func.body with
    | Ast.SIf
        (Ast.IsNilB [], Ast.SBlock (nil_label, nil_block), else_branch) -> (
      match else_branch with
      | Ast.SSeq
          ( Ast.SSeq
              ( Ast.SBlock (_, Ast.Call cl),
                Ast.SBlock (_, Ast.Call cr) ),
            tail )
        when cl.callee = name && cr.callee = name
             && List.sort compare [ cl.target; cr.target ]
                = [ [ Ast.L ]; [ Ast.R ] ]
             && not (stmt_has_calls tail) ->
        (* either child order is accepted; the fused traversal visits
           left-then-right and the verification decides whether that
           reordering was legal *)
        Ok { func; nil_label; nil_block; tail }
      | _ ->
        Error
          (Printf.sprintf
             "%s is not a post-order self-recursive traversal with a \
              call-free tail"
             name))
    | _ -> Error (Printf.sprintf "%s does not match `if (n == nil) ...`" name))

(* The labels of the straight-line blocks of a statement, in order. *)
let rec stmt_labels = function
  | Ast.SBlock (Some l, Ast.Straight _) -> [ l ]
  | Ast.SBlock _ -> []
  | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
    stmt_labels a @ stmt_labels b

(* Main must be a sequence of parameterless calls to the given traversals
   (in order) followed by a final return block. *)
let main_shape (prog : Ast.prog) (names : string list) :
    ((string option * string) option, error) result =
  let main = Ast.main_func prog in
  let rec collect acc = function
    | Ast.SSeq (a, b) ->
      Result.bind (collect acc a) (fun acc -> collect acc b)
    | Ast.SBlock (_, Ast.Call c) when c.target = [] && c.args = [] ->
      Ok (`Call c.callee :: acc)
    | Ast.SBlock (l, (Ast.Straight _ as b)) -> Ok (`Ret (l, b) :: acc)
    | _ -> Error "Main has an unsupported shape for fusion"
  in
  Result.bind (collect [] main.body) (fun items ->
      match List.rev items with
      | calls_then_ret -> (
        let calls, rets =
          List.partition (function `Call _ -> true | `Ret _ -> false)
            calls_then_ret
        in
        let called =
          List.filter_map (function `Call c -> Some c | `Ret _ -> None) calls
        in
        if called <> names then
          Error "Main does not call exactly the given traversals in order"
        else
          match rets with
          | [] -> Ok None
          | [ `Ret (l, Ast.Straight assigns) ] ->
            ignore assigns;
            Ok (Some (l, "ret"))
          | _ -> Error "Main has more than one trailing block"))

let fused_name = "Fused"

(** Fuse the named post-order traversals (which [Main] must call
    sequentially, in order) into a single traversal [Fused].  Returns the
    new program and the non-call block map for the equivalence check. *)
let fuse (prog : Ast.prog) (names : string list) :
    (Ast.prog * (string * string) list, error) result =
  if names = [] then Error "nothing to fuse"
  else begin
    let rec gather acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest ->
        Result.bind (as_fusable prog n) (fun f -> gather (f :: acc) rest)
    in
    Result.bind (gather [] names) @@ fun fusables ->
    Result.bind (main_shape prog names) @@ fun _ret ->
    let first = List.hd fusables in
    let fused_nil_label =
      Option.value first.nil_label
        ~default:(Printf.sprintf "%s_nil" fused_name)
    in
    (* fused body: the two recursive calls, then every tail in pass order *)
    let calls =
      Ast.SSeq
        ( Ast.SBlock
            (None,
             Ast.Call
               { lhs = []; callee = fused_name; target = [ Ast.L ]; args = [] }),
          Ast.SBlock
            (None,
             Ast.Call
               { lhs = []; callee = fused_name; target = [ Ast.R ]; args = [] })
        )
    in
    let tails =
      List.fold_left
        (fun acc f -> Ast.SSeq (acc, f.tail))
        calls fusables
    in
    let fused_func =
      {
        Ast.fname = fused_name;
        fline = 0;
        loc_param = first.func.loc_param;
        int_params = [];
        body =
          Ast.SIf
            ( Ast.IsNilB [],
              Ast.SBlock (Some fused_nil_label, first.nil_block),
              tails );
      }
    in
    (* new Main: one call to the fused traversal; keep Main's own blocks *)
    let main = Ast.main_func prog in
    let rec rewrite_main = function
      | Ast.SSeq (a, b) -> (
        match (rewrite_main a, rewrite_main b) with
        | None, None -> None
        | Some a', None -> Some a'
        | None, Some b' -> Some b'
        | Some a', Some b' -> Some (Ast.SSeq (a', b')))
      | Ast.SBlock (_, Ast.Call c) when List.mem c.callee names ->
        if c.callee = List.hd names then
          Some
            (Ast.SBlock
               (None,
                Ast.Call
                  { lhs = []; callee = fused_name; target = []; args = [] }))
        else None
      | s -> Some s
    in
    let main' =
      {
        main with
        Ast.body =
          (match rewrite_main main.body with
          | Some b -> b
          | None -> main.body);
      }
    in
    let others =
      List.filter
        (fun (f : Ast.func) ->
          (not (List.mem f.fname names)) && f.fname <> "Main")
        prog.funcs
    in
    let prog' = { Ast.funcs = (fused_func :: others) @ [ main' ] } in
    (* the block map: tails keep their labels; every traversal's nil block
       maps to the fused nil block; Main's blocks map to themselves *)
    let map =
      List.concat_map
        (fun f ->
          ((match f.nil_label with
           | Some l -> [ (l, fused_nil_label) ]
           | None -> [])
          @ List.map (fun l -> (l, l)) (stmt_labels f.tail)))
        fusables
      @ List.map (fun l -> (l, l)) (stmt_labels main.body)
    in
    Ok (prog', List.sort_uniq compare map)
  end
