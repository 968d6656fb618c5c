(* Hash-consed MTBDDs with int terminals; same ordering discipline as Bdd.
   Mutable state (node/leaf tables, memo tables) lives in the current
   Solver_ctx, as in Bdd. *)

type var = int

type t =
  | Leaf of { id : int; value : int }
  | Node of { id : int; v : var; lo : t; hi : t }

let id = function Leaf { id; _ } -> id | Node { id; _ } -> id

let equal a b = a == b
let hash t = id t

module NodeKey = struct
  type t = var * int * int

  let equal (v1, l1, h1) (v2, l2, h2) = v1 = v2 && l1 = l2 && h1 = h2
  let hash (v, l, h) = (v * 0x9e3779b1) lxor (l * 613) lxor (h * 2909)
end

module NodeTbl = Hashtbl.Make (NodeKey)

module Memo2 = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x9e3779b1) lxor b
end)

module IdTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i
end)

type st = {
  node_tbl : t NodeTbl.t;
  leaf_tbl : (int, t) Hashtbl.t;
  mutable next_id : int;
  ite_memo : t Memo2.t Memo2.t;
}

let slot =
  Solver_ctx.Slot.create (fun () ->
      {
        node_tbl = NodeTbl.create 65536;
        leaf_tbl = Hashtbl.create 256;
        next_id = 0;
        ite_memo = Memo2.create 64;
      })

let st () = Solver_ctx.get_current slot

let const_in st value =
  match Hashtbl.find_opt st.leaf_tbl value with
  | Some l -> l
  | None ->
    Engine.note_bdd_node ();
    let l = Leaf { id = st.next_id; value } in
    st.next_id <- st.next_id + 1;
    Hashtbl.add st.leaf_tbl value l;
    l

let const value = const_in (st ()) value

let mk st v lo hi =
  if lo == hi then lo
  else
    let key = (v, id lo, id hi) in
    match NodeTbl.find_opt st.node_tbl key with
    | Some n -> n
    | None ->
      Engine.note_bdd_node ();
      let n = Node { id = st.next_id; v; lo; hi } in
      st.next_id <- st.next_id + 1;
      NodeTbl.add st.node_tbl key n;
      n

let level = function
  | Leaf _ -> max_int
  | Node { v; _ } -> v

let cofactors v t =
  match t with
  | Node { v = v'; lo; hi; _ } when v' = v -> (lo, hi)
  | _ -> (t, t)

(* ite with a Bdd guard. *)
let ite g a b =
  let st = st () in
  let rec go g a b =
    if a == b then a
    else if Bdd.is_top g then a
    else if Bdd.is_bot g then b
    else begin
      let tbl =
        match Memo2.find_opt st.ite_memo (Bdd.hash g, Bdd.hash g) with
        | Some tbl -> tbl
        | None ->
          let tbl = Memo2.create 64 in
          Memo2.add st.ite_memo (Bdd.hash g, Bdd.hash g) tbl;
          tbl
      in
      let key = (id a, id b) in
      match Memo2.find_opt tbl key with
      | Some r -> r
      | None ->
        let gv =
          match Bdd.support g with
          | v :: _ -> v
          | [] -> assert false
        in
        let v = min gv (min (level a) (level b)) in
        let a0, a1 = cofactors v a and b0, b1 = cofactors v b in
        let g0 = Bdd.restrict g v false and g1 = Bdd.restrict g v true in
        let r = mk st v (go g0 a0 b0) (go g1 a1 b1) in
        Memo2.add tbl key r;
        r
    end
  in
  go g a b

let combiner f =
  let st = st () in
  let tbl = Memo2.create 64 in
  let rec go a b =
    match (a, b) with
    | Leaf { value = x; _ }, Leaf { value = y; _ } -> const_in st (f x y)
    | _ -> (
      let key = (id a, id b) in
      match Memo2.find_opt tbl key with
      | Some r -> r
      | None ->
        let v = min (level a) (level b) in
        let a0, a1 = cofactors v a and b0, b1 = cofactors v b in
        let r = mk st v (go a0 b0) (go a1 b1) in
        Memo2.add tbl key r;
        r)
  in
  go

let mapper f =
  let st = st () in
  let tbl = IdTbl.create 256 in
  let rec go t =
    let i = id t in
    match IdTbl.find_opt tbl i with
    | Some r -> r
    | None ->
      let r =
        match t with
        | Leaf { value; _ } -> const_in st (f value)
        | Node { v; lo; hi; _ } -> mk st v (go lo) (go hi)
      in
      IdTbl.add tbl i r;
      r
  in
  go

let renamer f =
  let st = st () in
  let tbl = IdTbl.create 256 in
  let rec go t =
    match t with
    | Leaf { value; _ } -> const_in st value
    | Node { id = i; v; lo; hi } -> (
      match IdTbl.find_opt tbl i with
      | Some r -> r
      | None ->
        let lo = go lo and hi = go hi in
        let v = f v in
        if v >= level lo || v >= level hi then
          invalid_arg "Mtbdd.renamer: the map is not increasing";
        let r = mk st v lo hi in
        IdTbl.add tbl i r;
        r)
  in
  go

let restricter v b =
  let st = st () in
  let tbl = IdTbl.create 64 in
  let rec go t =
    match t with
    | Leaf _ -> t
    | Node { id = i; v = v'; lo; hi } ->
      if v' > v then t
      else if v' = v then if b then hi else lo
      else (
        match IdTbl.find_opt tbl i with
        | Some r -> r
        | None ->
          let r = mk st v' (go lo) (go hi) in
          IdTbl.add tbl i r;
          r)
  in
  go

let rec eval rho t =
  match t with
  | Leaf { value; _ } -> value
  | Node { v; lo; hi; _ } -> if rho v then eval rho hi else eval rho lo

(* A node already visited lies above terminals already reported, so each
   scan walks only the part of its diagram that no earlier scan reached;
   a diagram whose root was seen costs one lookup and allocates nothing. *)
let terminal_scanner () =
  let seen = IdTbl.create 64 in
  let rec go acc t =
    let i = id t in
    if IdTbl.mem seen i then acc
    else begin
      IdTbl.add seen i ();
      match t with
      | Leaf { value; _ } -> value :: acc
      | Node { lo; hi; _ } -> go (go acc lo) hi
    end
  in
  fun t -> match go [] t with [] -> [] | acc -> List.sort Int.compare acc

let terminals t = terminal_scanner () t

let find_terminal t k =
  let rec go acc t =
    match t with
    | Leaf { value; _ } -> if value = k then Some (List.rev acc) else None
    | Node { v; lo; hi; _ } -> (
      match go ((v, false) :: acc) lo with
      | Some _ as r -> r
      | None -> go ((v, true) :: acc) hi)
  in
  go [] t

let size t =
  let seen = Hashtbl.create 16 in
  let n = ref 0 in
  let rec go = function
    | Leaf _ -> ()
    | Node { id; lo; hi; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        incr n;
        go lo;
        go hi
      end
  in
  go t;
  !n

(* ------------------------------------------------------------------ *)
(* Self-validation: same representation sweep as {!Bdd.check_integrity},
   over the current context's MTBDD tables. *)

let check_integrity () =
  let st = st () in
  let bad = ref None in
  NodeTbl.iter
    (fun (v, lo_id, hi_id) n ->
      if !bad = None then
        match n with
        | Leaf _ -> bad := Some "leaf stored in the node table"
        | Node { v = v'; lo; hi; _ } ->
          if v' <> v || id lo <> lo_id || id hi <> hi_id then
            bad :=
              Some
                (Printf.sprintf "node-table key (x%d,%d,%d) maps to node \
                                 (x%d,%d,%d)" v lo_id hi_id v' (id lo) (id hi))
          else if lo == hi then
            bad := Some (Printf.sprintf "unreduced node at x%d" v)
          else if v >= level lo || v >= level hi then
            bad := Some (Printf.sprintf "variable order violated at x%d" v))
    st.node_tbl;
  if !bad = None then
    Hashtbl.iter
      (fun value n ->
        if !bad = None then
          match n with
          | Leaf { value = v'; _ } when v' = value -> ()
          | _ -> bad := Some "leaf-table entry does not match its value")
      st.leaf_tbl;
  match !bad with None -> Ok () | Some msg -> Error ("mtbdd: " ^ msg)

let () =
  Faults.on_flush (fun () ->
      let st = st () in
      Memo2.reset st.ite_memo)
