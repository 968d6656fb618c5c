(* Hash-consed ROBDDs.  The unique table maps (var, lo.id, hi.id) to the
   canonical node; the reduction rule [lo == hi -> lo] is applied at
   construction, so [==] on [t] is semantic equality.

   All mutable state — the unique table and the operation memo tables —
   lives in the current {!Solver_ctx}, one per domain, so diagrams from
   different contexts never share structure (and [==] is only meaningful
   between diagrams built in the same context). *)

type var = int

type t =
  | False
  | True
  | Node of { id : int; v : var; lo : t; hi : t }

let id = function False -> 0 | True -> 1 | Node { id; _ } -> id

let equal a b = a == b
let hash t = id t

let bot = False
let top = True
let is_bot t = t == False
let is_top t = t == True

(* Fault site for the self-validation campaign: when armed and firing,
   [mk] builds the node with its cofactors swapped.  The swap happens
   before the unique-table lookup, so the table itself stays consistent —
   the result is a well-formed diagram for the wrong function. *)
let site_branch_flip =
  Faults.register ~name:"bdd.branch_flip"
    ~descr:"swap the cofactors of a freshly requested BDD node" ()

(* Unique table. *)
module Key = struct
  type nonrec t = var * int * int

  let equal (v1, l1, h1) (v2, l2, h2) = v1 = v2 && l1 = l2 && h1 = h2
  let hash (v, l, h) = (v * 0x9e3779b1) lxor (l * 613) lxor (h * 2909)
end

module Unique = Hashtbl.Make (Key)

(* Memo tables for the binary operations.  Keys are id pairs; tables
   grow monotonically within a context, which is acceptable for the
   formula sizes this library targets. *)
module Pair = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x9e3779b1) lxor b
end

module Memo2 = Hashtbl.Make (Pair)

(* The per-context state.  Node ids start at 2 (0/1 are the constants). *)
type st = {
  unique : t Unique.t;
  mutable next_id : int;
  neg_memo : t Memo2.t;
  apply_cache : t Memo2.t Memo2.t;
}

let slot =
  Solver_ctx.Slot.create (fun () ->
      {
        unique = Unique.create 65536;
        next_id = 2;
        neg_memo = Memo2.create 4096;
        apply_cache = Memo2.create 8;
      })

let st () = Solver_ctx.get_current slot

let mk st v lo hi =
  let lo, hi = if Faults.fire site_branch_flip then (hi, lo) else (lo, hi) in
  if lo == hi then lo
  else
    let key = (v, id lo, id hi) in
    match Unique.find_opt st.unique key with
    | Some n -> n
    | None ->
      Engine.note_bdd_node ();
      let n = Node { id = st.next_id; v; lo; hi } in
      st.next_id <- st.next_id + 1;
      Unique.add st.unique key n;
      n

let var v =
  if v < 0 then invalid_arg "Bdd.var: negative variable";
  mk (st ()) v False True

let nvar v =
  if v < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk (st ()) v True False

let top_var a b =
  match (a, b) with
  | Node { v = va; _ }, Node { v = vb; _ } -> min va vb
  | Node { v; _ }, _ | _, Node { v; _ } -> v
  | _ -> invalid_arg "Bdd.top_var: both constants"

let cofactors v t =
  match t with
  | Node { v = v'; lo; hi; _ } when v' = v -> (lo, hi)
  | _ -> (t, t)

let neg t =
  let st = st () in
  let rec go t =
    match t with
    | False -> True
    | True -> False
    | Node { id = i; v; lo; hi } -> (
      let key = (i, i) in
      match Memo2.find_opt st.neg_memo key with
      | Some r -> r
      | None ->
        let r = mk st v (go lo) (go hi) in
        Memo2.add st.neg_memo key r;
        r)
  in
  go t

(* A fresh memo table per operation identity.  Operations are identified by a
   small integer tag rather than closure identity. *)
let op_table st tag =
  match Memo2.find_opt st.apply_cache (tag, tag) with
  | Some tbl -> tbl
  | None ->
    let tbl = Memo2.create 4096 in
    Memo2.add st.apply_cache (tag, tag) tbl;
    tbl

let apply tag f a b =
  let st = st () in
  let tbl = op_table st tag in
  let rec go a b =
    match f a b with
    | Some r -> r
    | None -> (
      let key = (id a, id b) in
      match Memo2.find_opt tbl key with
      | Some r -> r
      | None ->
        let v = top_var a b in
        let a0, a1 = cofactors v a and b0, b1 = cofactors v b in
        let r = mk st v (go a0 b0) (go a1 b1) in
        Memo2.add tbl key r;
        r)
  in
  go a b

let conj a b =
  apply 1
    (fun a b ->
      if a == False || b == False then Some False
      else if a == True then Some b
      else if b == True then Some a
      else if a == b then Some a
      else None)
    a b

let disj a b =
  apply 2
    (fun a b ->
      if a == True || b == True then Some True
      else if a == False then Some b
      else if b == False then Some a
      else if a == b then Some a
      else None)
    a b

let xor a b =
  apply 3
    (fun a b ->
      if a == False then Some b
      else if b == False then Some a
      else if a == True then Some (neg b)
      else if b == True then Some (neg a)
      else if a == b then Some False
      else None)
    a b

let imp a b = disj (neg a) b
let iff a b = neg (xor a b)
let conj_list l = List.fold_left conj top l

let restrict t v b =
  let st = st () in
  let rec go t =
    match t with
    | False | True -> t
    | Node { v = v'; lo; hi; _ } ->
      if v' > v then t
      else if v' = v then if b then hi else lo
      else mk st v' (go lo) (go hi)
  in
  go t

let rec eval rho t =
  match t with
  | False -> false
  | True -> true
  | Node { v; lo; hi; _ } -> if rho v then eval rho hi else eval rho lo

let support t =
  let seen = Hashtbl.create 16 in
  let vars = ref [] in
  let rec go t =
    match t with
    | False | True -> ()
    | Node { id; v; lo; hi } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        if not (List.mem v !vars) then vars := v :: !vars;
        go lo;
        go hi
      end
  in
  go t;
  List.sort Int.compare !vars

(* ------------------------------------------------------------------ *)
(* Self-validation                                                     *)

(* Sweep the unique table and re-check the ROBDD representation
   invariants on every node ever built in the current context: the key
   matches the node (hash-consing consistency), no node has equal
   cofactors (reducedness), and each variable sits strictly above the
   variables of its cofactors (ordering).  O(table size); run at query
   boundaries, not per node. *)
let check_integrity () =
  let st = st () in
  let level = function False | True -> max_int | Node { v; _ } -> v in
  let bad = ref None in
  Unique.iter
    (fun (v, lo_id, hi_id) n ->
      if !bad = None then
        match n with
        | False | True -> bad := Some "constant stored in the unique table"
        | Node { v = v'; lo; hi; _ } ->
          if v' <> v || id lo <> lo_id || id hi <> hi_id then
            bad :=
              Some
                (Printf.sprintf "unique-table key (x%d,%d,%d) maps to node \
                                 (x%d,%d,%d)" v lo_id hi_id v' (id lo) (id hi))
          else if lo == hi then
            bad := Some (Printf.sprintf "unreduced node at x%d" v)
          else if v >= level lo || v >= level hi then
            bad := Some (Printf.sprintf "variable order violated at x%d" v))
    st.unique;
  match !bad with None -> Ok () | Some msg -> Error ("bdd: " ^ msg)

(* Armed fault runs may cache results computed from flipped nodes; drop
   the (pure, recomputable) memo tables of the current context so later
   runs start clean.  The unique table is kept: its nodes are well-formed
   and shared. *)
let () =
  Faults.on_flush (fun () ->
      let st = st () in
      Memo2.reset st.neg_memo;
      Memo2.reset st.apply_cache)
