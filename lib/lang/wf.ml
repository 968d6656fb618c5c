(** Well-formedness of Retreet programs (Section 2.1).

    Checks, in particular, the three restrictions that make the MSO
    encoding possible:
    - {b termination}: no function [g] may call [g] on the same node,
      directly or through a chain of same-node calls (the "stay-call" graph
      must be acyclic) — every recursive call chain makes downward progress;
    - {b single node traversal}: built into the grammar (one [Loc]
      parameter per function);
    - {b no tree mutation}: built into the grammar (pointer fields [l]/[r]
      cannot be assigned).

    Plus hygiene: [Main] exists, callees are defined with matching arities,
    return arities are consistent, block labels are unique and none is
    [main] (the encoding's name for Main's record), and every dereference
    [le.dir] is guarded by [le != nil] on its path. *)

type error = string

let errf fmt = Fmt.kstr (fun s -> s) fmt

(* "line N: " prefix for errors attributable to a function definition;
   generated functions (fline = 0) get no prefix. *)
let fpos (f : Ast.func) =
  if f.fline > 0 then Printf.sprintf "line %d: " f.fline else ""

let return_arity (f : Ast.func) : (int option, error) result =
  let arities = ref [] in
  let rec walk = function
    | Ast.SBlock (_, Ast.Straight assigns) ->
      List.iter
        (function
          | Ast.Return es -> arities := List.length es :: !arities
          | _ -> ())
        assigns
    | Ast.SBlock (_, Ast.Call _) -> ()
    | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
      walk a;
      walk b
  in
  walk f.body;
  match List.sort_uniq Int.compare !arities with
  | [] -> Ok None
  | [ k ] -> Ok (Some k)
  | _ -> Error (errf "%s%s: inconsistent return arities" (fpos f) f.fname)

(* Strict prefixes of a path, shortest first. *)
let strict_prefixes (p : Ast.lexpr) =
  let rec go acc cur = function
    | [] -> List.rev acc
    | d :: rest -> go (List.rev cur :: acc) (d :: cur) rest
  in
  go [] [] p

(* Does the guard set establish that [path] is not nil? *)
let non_nil_guarded (info : Blocks.t) guards path =
  List.exists
    (fun (cid, pol) ->
      (not pol)
      &&
      match (Blocks.cond info cid).cond with
      | Ast.IsNilB q -> q = path
      | _ -> false)
    guards

let check_derefs ?(lineof = fun _ -> "") (info : Blocks.t) : error list =
  let errors = ref [] in
  let need fname guards what (path : Ast.lexpr) =
    List.iter
      (fun prefix ->
        if not (non_nil_guarded info guards prefix) then
          errors :=
            errf "%s%s: %s dereferences %a without a guard %a != nil"
              (lineof fname) fname what Ast.pp_lexpr path Ast.pp_lexpr prefix
            :: !errors)
      (strict_prefixes path)
  in
  let check_aexpr fname guards what e =
    List.iter (fun (p, _f) -> need fname guards what p) (Ast.aexpr_fields e);
    (* reading field f of the node at p requires p itself to be non-nil *)
    List.iter
      (fun (p, _f) ->
        if not (non_nil_guarded info guards p) then
          errors :=
            errf "%s%s: %s reads a field of %a without a nil guard"
              (lineof fname) fname what Ast.pp_lexpr p
            :: !errors)
      (Ast.aexpr_fields e)
  in
  Array.iter
    (fun (b : Blocks.block_info) ->
      let what = Printf.sprintf "block %s" b.label in
      match b.block with
      | Ast.Call c ->
        need b.bfunc b.guards what c.target;
        List.iter (check_aexpr b.bfunc b.guards what) c.args
      | Ast.Straight assigns ->
        List.iter
          (function
            | Ast.SetField (p, _f, e) ->
              need b.bfunc b.guards what p;
              if not (non_nil_guarded info b.guards p) then
                errors :=
                  errf "%s%s: %s writes a field of %a without a nil guard"
                    (lineof b.bfunc) b.bfunc what Ast.pp_lexpr p
                  :: !errors;
              check_aexpr b.bfunc b.guards what e
            | Ast.SetVar (_, e) -> check_aexpr b.bfunc b.guards what e
            | Ast.Return es -> List.iter (check_aexpr b.bfunc b.guards what) es)
          assigns)
    info.blocks;
  Array.iter
    (fun (c : Blocks.cond_info) ->
      let what = "condition" in
      match c.cond with
      | Ast.IsNilB p -> (
        match strict_prefixes p with
        | [] -> ()
        | prefixes ->
          List.iter
            (fun prefix ->
              if not (non_nil_guarded info c.cguards prefix) then
                errors :=
                  errf "%s%s: %s tests %a but %a may be nil" (lineof c.cfunc)
                    c.cfunc what Ast.pp_lexpr p Ast.pp_lexpr prefix
                  :: !errors)
            prefixes)
      | Ast.Gt0 e ->
        List.iter
          (fun (p, _f) ->
            if
              not
                (List.for_all (non_nil_guarded info c.cguards)
                   (p :: strict_prefixes p))
            then
              errors :=
                errf "%s%s: %s reads a field of %a which may be nil"
                  (lineof c.cfunc) c.cfunc what Ast.pp_lexpr p
                :: !errors)
          (Ast.aexpr_fields e)
      | _ -> ())
    info.conds;
  List.rev !errors

(* The stay-call graph: an edge g -> h for every call of h on the caller's
   own node.  A cycle would allow a non-terminating same-node recursion. *)
let check_stay_cycles (prog : Ast.prog) : error list =
  let edges =
    List.concat_map
      (fun (f : Ast.func) ->
        let acc = ref [] in
        let rec walk = function
          | Ast.SBlock (_, Ast.Call c) when c.target = [] ->
            acc := (f.fname, c.callee) :: !acc
          | Ast.SBlock _ -> ()
          | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
            walk a;
            walk b
        in
        walk f.body;
        !acc)
      prog.funcs
  in
  let rec reaches seen src dst =
    if src = dst then true
    else if List.mem src seen then false
    else
      List.exists
        (fun (a, b) -> a = src && reaches (src :: seen) b dst)
        edges
  in
  List.filter_map
    (fun (f : Ast.func) ->
      if List.exists (fun (a, b) -> a = f.fname && reaches [] b f.fname) edges
      then
        Some
          (errf
             "%s%s: same-node recursion (the stay-call graph has a cycle \
              through %s), violating the termination restriction"
             (fpos f) f.fname f.fname)
      else None)
    prog.funcs

let check (prog : Ast.prog) : (Blocks.t, error list) result =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let lineof fname =
    match Ast.find_func prog fname with
    | Some f -> fpos f
    | None -> ""
  in
  (* Main *)
  if Ast.find_func prog "Main" = None then err "program has no Main function";
  (* duplicate functions *)
  let names = List.map (fun (f : Ast.func) -> f.fname) prog.funcs in
  List.iter
    (fun n ->
      if List.length (List.filter (String.equal n) names) > 1 then
        err (errf "%sfunction %s is defined more than once" (lineof n) n))
    (List.sort_uniq String.compare names);
  (* param hygiene *)
  List.iter
    (fun (f : Ast.func) ->
      let ps = f.loc_param :: f.int_params in
      if List.length (List.sort_uniq String.compare ps) <> List.length ps then
        err (errf "%s%s: duplicate parameter names" (fpos f) f.fname))
    prog.funcs;
  (* return arities *)
  let arity_of = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      match return_arity f with
      | Ok a -> Hashtbl.add arity_of f.fname a
      | Error e -> err e)
    prog.funcs;
  (* calls: defined callees, matching arities *)
  List.iter
    (fun (f : Ast.func) ->
      let rec walk = function
        | Ast.SBlock (_, Ast.Call c) -> (
          match Ast.find_func prog c.callee with
          | None ->
            err
              (errf "%s%s: call to undefined function %s" (fpos f) f.fname
                 c.callee)
          | Some callee ->
            if List.length c.args <> List.length callee.int_params then
              err
                (errf "%s%s: call to %s passes %d Int arguments, expected %d"
                   (fpos f) f.fname c.callee (List.length c.args)
                   (List.length callee.int_params));
            if c.lhs <> [] then
              match Hashtbl.find_opt arity_of c.callee with
              | Some (Some k) when k <> List.length c.lhs ->
                err
                  (errf "%s%s: call to %s binds %d values, %s returns %d"
                     (fpos f) f.fname c.callee (List.length c.lhs) c.callee k)
              | Some None ->
                err
                  (errf "%s%s: call to %s binds values but %s never returns \
                         any"
                     (fpos f) f.fname c.callee c.callee)
              | _ -> ())
        | Ast.SBlock _ -> ()
        | Ast.SIf (_, a, b) | Ast.SSeq (a, b) | Ast.SPar (a, b) ->
          walk a;
          walk b
      in
      walk f.body)
    prog.funcs;
  List.iter err (check_stay_cycles prog);
  if !errors <> [] then Error (List.rev !errors)
  else begin
    let info = Blocks.analyze prog in
    (* unique labels *)
    let labels = List.map (fun (b : Blocks.block_info) -> b.label)
        (Blocks.all_blocks info) in
    List.iter
      (fun l ->
        if List.length (List.filter (String.equal l) labels) > 1 then
          err (errf "block label %s is not unique" l))
      (List.sort_uniq String.compare labels);
    (* The encoding names Main's record [main], as it names a call block's
       records by its label: a block labelled [main] would share that
       label variable. *)
    if List.mem "main" labels then
      err "block label main is reserved for Main's record";
    List.iter err (check_derefs ~lineof info);
    match List.rev !errors with [] -> Ok info | es -> Error es
  end

let check_exn prog =
  match check prog with
  | Ok info -> info
  | Error es ->
    invalid_arg
      (Printf.sprintf "ill-formed Retreet program:\n%s" (String.concat "\n" es))
