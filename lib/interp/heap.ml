(** Tree-shaped heaps: the runtime data structure Retreet programs
    traverse.  Nodes carry mutable integer fields; the pointer structure is
    immutable from the language's point of view (builders may use the
    setters during construction). *)

type tree =
  | Nil
  | Node of node

and node = {
  mutable left : tree;
  mutable right : tree;
  fields : (string, int) Hashtbl.t;
}

let node ?(fields = []) left right =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (f, v) -> Hashtbl.replace tbl f v) fields;
  Node { left; right; fields = tbl }

let leaf ?fields () = node ?fields Nil Nil

let is_nil = function Nil -> true | Node _ -> false

(** Follow a pointer path; [None] if the walk crosses a nil. *)
let descend (t : tree) (path : Ast.dir list) : tree option =
  let rec go t = function
    | [] -> Some t
    | d :: rest -> (
      match t with
      | Nil -> None
      | Node n -> go (match d with Ast.L -> n.left | Ast.R -> n.right) rest)
  in
  go t path

let get_field t f =
  match t with
  | Nil -> invalid_arg "Heap.get_field: nil node"
  | Node n -> ( match Hashtbl.find_opt n.fields f with Some v -> v | None -> 0)

let set_field t f v =
  match t with
  | Nil -> invalid_arg "Heap.set_field: nil node"
  | Node n -> Hashtbl.replace n.fields f v

let rec size = function
  | Nil -> 0
  | Node n -> 1 + size n.left + size n.right

let rec height = function
  | Nil -> 0
  | Node n -> 1 + max (height n.left) (height n.right)

let rec copy = function
  | Nil -> Nil
  | Node n ->
    Node
      {
        left = copy n.left;
        right = copy n.right;
        fields = Hashtbl.copy n.fields;
      }

(* Compare field tables as sorted association lists, treating absent
   entries as 0 (the read default). *)
let fields_alist tbl =
  Hashtbl.fold (fun f v acc -> if v = 0 then acc else (f, v) :: acc) tbl []
  |> List.sort compare

(** Structural equality of shape and field contents. *)
let rec equal a b =
  match (a, b) with
  | Nil, Nil -> true
  | Node na, Node nb ->
    fields_alist na.fields = fields_alist nb.fields
    && equal na.left nb.left && equal na.right nb.right
  | _ -> false

let rec pp ppf = function
  | Nil -> Fmt.string ppf "nil"
  | Node n ->
    Fmt.pf ppf "@[<hv 2>(%a@ %a@ %a)@]"
      Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") string int))
      (fields_alist n.fields) pp n.left pp n.right

(** All non-nil positions with their paths from the root. *)
let positions (t : tree) : (tree * Ast.dir list) list =
  let rec go path acc = function
    | Nil -> acc
    | Node n as here ->
      let acc = (here, List.rev path) :: acc in
      let acc = go (Ast.L :: path) acc n.left in
      go (Ast.R :: path) acc n.right
  in
  List.rev (go [] [] t)

(** A complete binary tree of the given height with every node's fields
    initialized by [init], which receives the node's path. *)
let rec complete ~height:h ~(init : Ast.dir list -> (string * int) list) path =
  if h <= 0 then Nil
  else
    node ~fields:(init (List.rev path))
      (complete ~height:(h - 1) ~init (Ast.L :: path))
      (complete ~height:(h - 1) ~init (Ast.R :: path))

let complete_tree ~height ~init = complete ~height ~init []

(* The case studies' field names; a program ignores those it does not
   read. *)
let probe_fields = [ "v"; "value"; "kind"; "prop"; "num"; "swapped" ]

let probe_trees ~seed ~heights ~per_height =
  let rng = Random.State.make [| seed |] in
  List.concat_map
    (fun height ->
      List.init per_height (fun _ ->
          complete_tree ~height ~init:(fun _ ->
              List.map (fun f -> (f, Random.State.int rng 12)) probe_fields)))
    heights

(** A random tree with approximately [size] nodes. *)
let random ?(init = fun _ -> []) ~size (rng : Random.State.t) : tree =
  let remaining = ref size in
  let rec go path =
    if !remaining <= 0 then Nil
    else if Random.State.int rng (1 + List.length path) > 1 then Nil
    else begin
      decr remaining;
      let fields = init (List.rev path) in
      node ~fields (go (Ast.L :: path)) (go (Ast.R :: path))
    end
  in
  match go [] with
  | Nil -> leaf ~fields:(init []) () (* at least one node *)
  | t -> t
