(** Block extraction and the relations of Appendix B.

    Code blocks (function calls or straight-line runs of assignments) are
    the atomic units of Retreet programs.  This module numbers every block
    and every atomic branch condition of a program, records each block's
    syntactic position, and computes the relations between blocks:
    [s / t] (s is a call to the function containing t), [s ~ t] (same
    function), and — for blocks of the same function — [s ≺ t] (sequenced),
    [s ↑ t] (opposite conditional branches) and [s ‖ t] (parallel). *)

type node_kind = KSeq | KIf | KPar

type pos = (node_kind * int) list
(** Path from the function body's root in the statement syntax tree. *)

type cond_info = {
  cid : int;
  cfunc : string;
  cond : Ast.bexpr;  (** atomic: [IsNilB _] or [Gt0 _] (negations stripped) *)
  cpos : pos;
  cguards : (int * bool) list;
      (** the conditions (with polarity) guarding this condition itself *)
}

type block_info = {
  id : int;
  label : string;  (** user label or generated ["s<id>"] *)
  bfunc : string;
  block : Ast.block;
  bpos : pos;
  guards : (int * bool) list;
      (** [Path(t)]: condition ids with polarity, outermost first.  Polarity
          [true] means the positive atomic condition must hold. *)
  prefix : int list;
      (** ids of the blocks that execute before this one on its path within
          the function (sequenced ancestors' left siblings, flattened) *)
}

(** Function bodies with blocks and conditions replaced by their ids; the
    execution-facing view used by the interpreter and the encoder. *)
type astmt =
  | ABlock of int
  | AIf of int option * bool * astmt * astmt
      (** condition id ([None] for a constant [true] test), whether the
          source condition was negated, then- and else-branch *)
  | ASeq of astmt * astmt
  | APar of astmt * astmt

type t = {
  prog : Ast.prog;
  blocks : block_info array;  (** indexed by block id *)
  conds : cond_info array;  (** indexed by condition id *)
  func_blocks : (string * int list) list;  (** per function, in order *)
  func_conds : (string * int list) list;
  bodies : (string * astmt) list;  (** annotated body per function *)
}

(* Strip [NotB] wrappers, returning the atomic condition and whether the
   polarity was flipped an odd number of times. *)
let rec strip_not = function
  | Ast.NotB b ->
    let atom, flipped = strip_not b in
    (atom, not flipped)
  | b -> (b, false)

let analyze (prog : Ast.prog) : t =
  let blocks = ref [] and nblocks = ref 0 in
  let conds = ref [] and nconds = ref 0 in
  let func_blocks = ref [] and func_conds = ref [] in
  let add_func_entry fname =
    func_blocks := (fname, ref []) :: !func_blocks;
    func_conds := (fname, ref []) :: !func_conds
  in
  let record_block fname label block bpos guards prefix =
    let id = !nblocks in
    incr nblocks;
    let label = match label with Some l -> l | None -> Printf.sprintf "s%d" id in
    blocks :=
      { id; label; bfunc = fname; block; bpos; guards; prefix } :: !blocks;
    let cell = List.assoc fname !func_blocks in
    cell := id :: !cell;
    id
  in
  let record_cond fname cond cpos cguards =
    let cid = !nconds in
    incr nconds;
    conds := { cid; cfunc = fname; cond; cpos; cguards } :: !conds;
    let cell = List.assoc fname !func_conds in
    cell := cid :: !cell;
    cid
  in
  let bodies = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      add_func_entry f.fname;
      (* [prefix] accumulates blocks already executed on the current path;
         it is threaded left-to-right through sequences.  Parallel arms do
         not extend each other's prefixes. *)
      let rec walk pos guards prefix (s : Ast.stmt) : int list * astmt =
        match s with
        | Ast.SBlock (label, b) ->
          let id = record_block f.fname label b (List.rev pos) guards prefix in
          ([ id ], ABlock id)
        | Ast.SIf (c, s1, s2) ->
          let atom, flipped = strip_not c in
          (match atom with
          | Ast.IsNilB _ | Ast.Gt0 _ ->
            let cid = record_cond f.fname atom (List.rev pos) guards in
            let then_guard = (cid, not flipped) and else_guard = (cid, flipped) in
            let b1, a1 =
              walk ((KIf, 0) :: pos) (guards @ [ then_guard ]) prefix s1
            in
            let b2, a2 =
              walk ((KIf, 1) :: pos) (guards @ [ else_guard ]) prefix s2
            in
            (b1 @ b2, AIf (Some cid, flipped, a1, a2))
          | Ast.BTrue ->
            (* constant condition: both branches share the guard set *)
            let b1, a1 = walk ((KIf, 0) :: pos) guards prefix s1 in
            let b2, a2 = walk ((KIf, 1) :: pos) guards prefix s2 in
            (b1 @ b2, AIf (None, flipped, a1, a2))
          | Ast.NotB _ -> assert false)
        | Ast.SSeq (s1, s2) ->
          let b1, a1 = walk ((KSeq, 0) :: pos) guards prefix s1 in
          let b2, a2 = walk ((KSeq, 1) :: pos) guards (prefix @ b1) s2 in
          (b1 @ b2, ASeq (a1, a2))
        | Ast.SPar (s1, s2) ->
          let b1, a1 = walk ((KPar, 0) :: pos) guards prefix s1 in
          let b2, a2 = walk ((KPar, 1) :: pos) guards prefix s2 in
          (b1 @ b2, APar (a1, a2))
      in
      let _, body = walk [] [] [] f.body in
      bodies := (f.fname, body) :: !bodies)
    prog.funcs;
  {
    prog;
    blocks = Array.of_list (List.rev !blocks);
    conds = Array.of_list (List.rev !conds);
    func_blocks =
      List.rev_map (fun (f, cell) -> (f, List.rev !cell)) !func_blocks;
    func_conds =
      List.rev_map (fun (f, cell) -> (f, List.rev !cell)) !func_conds;
    bodies = List.rev !bodies;
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let block t id = t.blocks.(id)
let cond t cid = t.conds.(cid)
let nblocks t = Array.length t.blocks
let all_blocks t = Array.to_list t.blocks

let blocks_of_func t fname =
  match List.assoc_opt fname t.func_blocks with Some l -> l | None -> []

let conds_of_func t fname =
  match List.assoc_opt fname t.func_conds with Some l -> l | None -> []

let is_call t id =
  match t.blocks.(id).block with Ast.Call _ -> true | Ast.Straight _ -> false

let call_of t id =
  match t.blocks.(id).block with
  | Ast.Call c -> c
  | Ast.Straight _ -> invalid_arg "Blocks.call_of: not a call block"

let all_calls t =
  List.filter (fun b -> is_call t b.id) (all_blocks t) |> List.map (fun b -> b.id)

let all_noncalls t =
  List.filter (fun b -> not (is_call t b.id)) (all_blocks t)
  |> List.map (fun b -> b.id)

let block_by_label t label =
  Array.to_list t.blocks |> List.find_opt (fun b -> b.label = label)

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)

(** [calls t s q]: the paper's [s / q] — block [s] is a call to the function
    that [q] belongs to. *)
let calls t s q =
  match t.blocks.(s).block with
  | Ast.Call c -> c.callee = t.blocks.(q).bfunc
  | Ast.Straight _ -> false

(** Call blocks [s] with [s / q]. *)
let callers_of t q =
  List.filter (fun s -> calls t s q) (all_calls t)

let same_func t s q = t.blocks.(s).bfunc = t.blocks.(q).bfunc

(** Call-graph reachability, reflexive: can a chain of calls starting in a
    frame of [f] create a frame of [g]? *)
let func_reaches t f g =
  let callees f =
    List.filter_map
      (fun b ->
        match t.blocks.(b).block with
        | Ast.Call c -> Some c.callee
        | Ast.Straight _ -> None)
      (blocks_of_func t f)
  in
  let rec go seen = function
    | [] -> false
    | f :: _ when f = g -> true
    | f :: rest when List.mem f seen -> go seen rest
    | f :: rest -> go (f :: seen) (callees f @ rest)
  in
  go [] [ f ]

type order = Prec | Follows | Branch | Par

(** Relation between two distinct blocks of the same function, determined
    by the least common ancestor in the statement syntax tree (Lemma 2). *)
let order t s q =
  if not (same_func t s q) || s = q then
    invalid_arg "Blocks.order: blocks must be distinct and from one function";
  let rec diverge p1 p2 =
    match (p1, p2) with
    | (k1, i1) :: r1, (k2, i2) :: r2 ->
      assert (k1 = k2);
      if i1 = i2 then diverge r1 r2
      else
        (match k1 with
        | KSeq -> if i1 < i2 then Prec else Follows
        | KIf -> Branch
        | KPar -> Par)
    | _ ->
      (* blocks are leaves, so neither position is a prefix of the other *)
      assert false
  in
  diverge t.blocks.(s).bpos t.blocks.(q).bpos

let parallel t s q = same_func t s q && s <> q && order t s q = Par

(** Blocks of the function a call block [s] invokes ([s / t]); for [-1],
    the pseudo call creating the [Main] frame, the blocks of [Main]. *)
let callee_blocks t s =
  if s = -1 then blocks_of_func t "Main"
  else
    match t.blocks.(s).block with
    | Ast.Call c -> blocks_of_func t c.callee
    | Ast.Straight _ -> []

let body_of t fname =
  match List.assoc_opt fname t.bodies with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Blocks.body_of: no function %s" fname)
