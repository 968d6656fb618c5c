(** Symbolic speculative execution (Definitions 1 and 2 of the paper).

    For every function we execute the body symbolically, replacing each
    call's return values by ghost symbols (the speculative outputs [O]) and
    each parameter by an input symbol (the initial values [I]).  The result
    attaches to every branch condition its weakest precondition transported
    to the function entry (Figure 12) — a nil test on a location, or a
    linear-arithmetic atom over the entry symbols.

    Join points (code after a conditional or a parallel composition whose
    arms disagree on a variable or field) introduce fresh join symbols; the
    result is an over-approximation of the reachable valuations, which
    keeps the downstream race/conflict analyses sound. *)

type sym_cond =
  | SNil of Ast.lexpr  (** the condition [path == nil], a structural fact *)
  | SArith of Lin.t  (** the condition [e > 0] over entry symbols *)

type t = {
  info : Blocks.t;
  cond_sym : sym_cond array;  (** indexed by condition id *)
}

(* Symbol naming scheme.  All names are scoped by function so that atoms
   from different frames never share variables. *)
let param_sym fname p = Printf.sprintf "p:%s:%s" fname p

let field_sym fname path f =
  Printf.sprintf "f:%s:%s:%s" fname
    (String.concat "" (List.map (function Ast.L -> "l" | Ast.R -> "r") path))
    f

let ghost_sym block_id k = Printf.sprintf "r:%d:%d" block_id k

(* Join symbols are numbered per function, from a counter local to the
   function's walk, so that structurally identical functions in different
   programs produce identical (normalizable) join symbols — the
   bisimulation check compares path-condition atoms across programs. *)
let join_sym counter fname x =
  incr counter;
  Printf.sprintf "j:%s:%s:%d" fname x !counter

module SM = Map.Make (String)
module FM = Map.Make (struct
  type t = Ast.lexpr * string

  let compare = compare
end)

type state = { vars : Lin.t SM.t; flds : Lin.t FM.t }

let eval_aexpr fname st (e : Ast.aexpr) : Lin.t =
  let rec go = function
    | Ast.Num k -> Lin.of_int k
    | Ast.Var x -> (
      match SM.find_opt x st.vars with
      | Some v -> v
      | None -> Lin.var (param_sym fname x))
    | Ast.Field (p, f) -> (
      match FM.find_opt (p, f) st.flds with
      | Some v -> v
      | None -> Lin.var (field_sym fname p f))
    | Ast.Add (a, b) -> Lin.add (go a) (go b)
    | Ast.Sub (a, b) -> Lin.sub (go a) (go b)
  in
  go e

(* Merge two states after branching control flow: bindings present and equal
   on both sides are kept; anything else becomes a fresh join symbol. *)
let join counter fname (a : state) (b : state) : state =
  let join_vars =
    SM.merge
      (fun x va vb ->
        match (va, vb) with
        | Some va, Some vb when Lin.equal va vb -> Some va
        | None, None -> None
        | _ -> Some (Lin.var (join_sym counter fname x)))
      a.vars b.vars
  in
  let join_flds =
    FM.merge
      (fun (_, f) va vb ->
        match (va, vb) with
        | Some va, Some vb when Lin.equal va vb -> Some va
        | None, None -> None
        | _ -> Some (Lin.var (join_sym counter fname ("fld_" ^ f))))
      a.flds b.flds
  in
  { vars = join_vars; flds = join_flds }

let analyze (info : Blocks.t) : t =
  let cond_sym = Array.make (Array.length info.conds) (SNil []) in
  List.iter
    (fun (f : Ast.func) ->
      let fname = f.fname in
      let join = join (ref 0) fname in
      let init =
        {
          vars =
            List.fold_left
              (fun m p -> SM.add p (Lin.var (param_sym fname p)) m)
              SM.empty f.int_params;
          flds = FM.empty;
        }
      in
      let rec walk st (s : Blocks.astmt) : state =
        match s with
        | Blocks.ABlock id -> (
          match (Blocks.block info id).block with
          | Ast.Call c ->
            let vars =
              List.fold_left
                (fun (k, m) x -> (k + 1, SM.add x (Lin.var (ghost_sym id k)) m))
                (0, st.vars) c.lhs
              |> snd
            in
            { st with vars }
          | Ast.Straight assigns ->
            List.fold_left
              (fun st a ->
                match a with
                | Ast.SetVar (x, e) ->
                  { st with vars = SM.add x (eval_aexpr fname st e) st.vars }
                | Ast.SetField (p, fld, e) ->
                  {
                    st with
                    flds = FM.add (p, fld) (eval_aexpr fname st e) st.flds;
                  }
                | Ast.Return _ -> st)
              st assigns)
        | Blocks.AIf (cid, _, s1, s2) ->
          Option.iter
            (fun cid ->
              cond_sym.(cid) <-
                (match (Blocks.cond info cid).cond with
                | Ast.IsNilB p -> SNil p
                | Ast.Gt0 e -> SArith (eval_aexpr fname st e)
                | Ast.BTrue | Ast.NotB _ -> assert false))
            cid;
          let st1 = walk st s1 in
          let st2 = walk st s2 in
          join st1 st2
        | Blocks.ASeq (s1, s2) -> walk (walk st s1) s2
        | Blocks.APar (s1, s2) ->
          let st1 = walk st s1 in
          let st2 = walk st s2 in
          join st1 st2
      in
      ignore (walk init (Blocks.body_of info fname)))
    info.prog.funcs;
  { info; cond_sym }

(** The weakest-precondition form of condition [cid] as a LIA atom,
    [None] for structural nil conditions.  Polarity [true] is the positive
    condition. *)
let cond_atom (t : t) cid ~(polarity : bool) : Lia.atom option =
  match t.cond_sym.(cid) with
  | SNil _ -> None
  | SArith e -> Some (if polarity then Lia.gt0 e else Lia.le0 e)

(** The nil-test location of condition [cid], if structural. *)
let cond_nil (t : t) cid : Ast.lexpr option =
  match t.cond_sym.(cid) with SNil p -> Some p | SArith _ -> None
