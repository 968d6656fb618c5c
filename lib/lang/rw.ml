(** Read/write analysis at the block level (Appendix B of the paper).

    For every non-call block we compute the sets of locations read and
    written.  A location is either a {e field} of a node reachable from the
    frame's node by a pointer path, or a {e local variable} of the frame.
    Reads occurring in the branch conditions guarding a block are charged
    to the block (the paper attaches condition reads to the read set).

    A [return] block additionally performs a {e caller write}: the returned
    vector is stored into the variables on the left-hand side of the call
    that created the frame.  Which variables those are depends on the call
    site, so the write is kept symbolic here ([ret_write]) and resolved by
    the encoder against each possible creating call block. *)

type site =
  | SField of Ast.lexpr * string
      (** field [f] of the node at [path] from the frame node *)
  | SVar of string  (** local variable of the frame *)

type access = {
  reads : site list;
  writes : site list;
  ret_write : bool;  (** the block returns, writing the caller's lhs vars *)
}

let sites_of_aexpr e =
  List.map (fun (p, f) -> SField (p, f)) (Ast.aexpr_fields e)
  @ List.map (fun v -> SVar v) (Ast.aexpr_vars e)

let sites_of_cond (c : Ast.bexpr) =
  (* Nil tests read the pointer structure, which is immutable; only
     arithmetic conditions contribute data reads. *)
  List.map (fun (p, f) -> SField (p, f)) (Ast.bexpr_fields c)
  @ List.map (fun v -> SVar v) (Ast.bexpr_vars c)

let dedup sites = List.sort_uniq compare sites

(** Access sets of a non-call block.
    @raise Invalid_argument on a call block. *)
let of_block (info : Blocks.t) (id : int) : access =
  let b = Blocks.block info id in
  match b.block with
  | Ast.Call _ -> invalid_arg "Rw.of_block: call blocks have no access sets"
  | Ast.Straight assigns ->
    let reads = ref [] and writes = ref [] and ret_write = ref false in
    List.iter
      (fun a ->
        match a with
        | Ast.SetVar (x, e) ->
          reads := sites_of_aexpr e @ !reads;
          writes := SVar x :: !writes
        | Ast.SetField (p, f, e) ->
          reads := sites_of_aexpr e @ !reads;
          writes := SField (p, f) :: !writes
        | Ast.Return es ->
          List.iter (fun e -> reads := sites_of_aexpr e @ !reads) es;
          if es <> [] then ret_write := true)
      assigns;
    (* condition reads along Path(t) *)
    List.iter
      (fun (cid, _pol) ->
        reads := sites_of_cond (Blocks.cond info cid).cond @ !reads)
      b.guards;
    { reads = dedup !reads; writes = dedup !writes; ret_write = !ret_write }
