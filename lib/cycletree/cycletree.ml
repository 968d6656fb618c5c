(** Cycletrees (Veanes & Barklund): binary trees enriched with a cyclic
    order of the nodes, so that broadcast uses the tree edges and
    point-to-point communication can follow the cycle.

    This module implements the ordered-cycletree machinery the paper's
    last case study verifies:

    - the cyclic numbering of Figure 9 (the four mutually recursive modes
      [Root]/[Pre]/[In]/[Post]), here with the counter threaded through the
      recursion so the numbering is a bijection;
    - the routing data ([lmin]/[lmax]/[rmin]/[rmax]/[min]/[max] per node)
      computed by a post-order pass;
    - the routing algorithm itself: moving a message one hop toward the
      node holding a destination number;
    - validation helpers: the numbering is a Hamiltonian cycle order in
      which consecutive numbers are tree-adjacent or connected by one of
      the few extra "cycle" edges, whose count the Veanes–Barklund papers
      bound.

    Nodes are {!Heap.tree} nodes; the numbering and routing data live in
    the integer fields [num], [lmin], [lmax], [rmin], [rmax], [min],
    [max] — the same fields the Retreet programs manipulate, so results
    can be cross-checked against the interpreter. *)

type mode = Root | Pre | In | Post

(** Number the tree in the cyclic order of Figure 9.  The counter is
    threaded (the paper's pseudo-code passes it by value; threading it is
    what makes the order a bijection).  Returns the next unused number. *)
let rec number_cyclic ?(mode = Root) (t : Heap.tree) (counter : int) : int =
  match t with
  | Heap.Nil -> counter
  | Heap.Node n -> (
    let set c = Heap.set_field t "num" c in
    match mode with
    | Root ->
      set counter;
      let c = number_cyclic ~mode:Pre n.left (counter + 1) in
      number_cyclic ~mode:Post n.right c
    | Pre ->
      set counter;
      let c = number_cyclic ~mode:Pre n.left (counter + 1) in
      number_cyclic ~mode:In n.right c
    | In ->
      let c = number_cyclic ~mode:Post n.left counter in
      set c;
      number_cyclic ~mode:Pre n.right (c + 1)
    | Post ->
      let c = number_cyclic ~mode:In n.left counter in
      let c = number_cyclic ~mode:Post n.right c in
      set c;
      c + 1)

(** The routing-data pass of Figure 9 ([ComputeRouting]): a post-order
    traversal storing, per node, the number ranges of its subtrees. *)
let rec compute_routing (t : Heap.tree) : unit =
  match t with
  | Heap.Nil -> ()
  | Heap.Node n ->
    compute_routing n.left;
    compute_routing n.right;
    let num = Heap.get_field t "num" in
    let lmin, lmax =
      match n.left with
      | Heap.Nil -> (num, num)
      | Heap.Node _ ->
        (Heap.get_field n.left "min", Heap.get_field n.left "max")
    in
    let rmin, rmax =
      match n.right with
      | Heap.Nil -> (num, num)
      | Heap.Node _ ->
        (Heap.get_field n.right "min", Heap.get_field n.right "max")
    in
    Heap.set_field t "lmin" lmin;
    Heap.set_field t "lmax" lmax;
    Heap.set_field t "rmin" rmin;
    Heap.set_field t "rmax" rmax;
    Heap.set_field t "min" (min num (min lmin rmin));
    Heap.set_field t "max" (max num (max lmax rmax))

(** Prepare a tree as an ordered cycletree: cyclic numbering followed by
    routing data.  Returns the number of nodes. *)
let build (t : Heap.tree) : int =
  let n = number_cyclic t 0 in
  compute_routing t;
  n

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

type hop = Up | Left | Right | Here

(** One routing step at a node holding routing data: where to forward a
    message addressed to number [dest].  Follows the tree edges using the
    subtree ranges, which is the efficient cycletree routing the paper
    cites. *)
let next_hop (t : Heap.tree) ~(dest : int) : hop =
  match t with
  | Heap.Nil -> invalid_arg "Cycletree.next_hop: nil node"
  | Heap.Node n ->
    if dest = Heap.get_field t "num" then Here
    else if
      (not (Heap.is_nil n.left))
      && dest >= Heap.get_field t "lmin"
      && dest <= Heap.get_field t "lmax"
    then Left
    else if
      (not (Heap.is_nil n.right))
      && dest >= Heap.get_field t "rmin"
      && dest <= Heap.get_field t "rmax"
    then Right
    else Up

(** Route a message from the node at [path] to the node numbered [dest];
    returns the traversed path length (number of hops) and the
    destination's path.  @raise Failure if routing does not converge
    within twice the tree height (indicating corrupt routing data). *)
let route (root : Heap.tree) ~(from : Ast.dir list) ~(dest : int) :
    int * Ast.dir list =
  let budget = (2 * Heap.height root) + 2 in
  let rec go path node hops =
    if hops > budget then failwith "Cycletree.route: routing diverged"
    else
      match next_hop node ~dest with
      | Here -> (hops, path)
      | Up -> (
        match path with
        | [] -> failwith "Cycletree.route: destination outside the tree"
        | _ ->
          let parent_path = List.filteri (fun i _ -> i < List.length path - 1) path in
          let parent =
            match Heap.descend root parent_path with
            | Some p -> p
            | None -> assert false
          in
          go parent_path parent (hops + 1))
      | Left -> (
        match node with
        | Heap.Node n -> go (path @ [ Ast.L ]) n.left (hops + 1)
        | Heap.Nil -> assert false)
      | Right -> (
        match node with
        | Heap.Node n -> go (path @ [ Ast.R ]) n.right (hops + 1)
        | Heap.Nil -> assert false)
  in
  match Heap.descend root from with
  | Some node -> go from node 0
  | None -> invalid_arg "Cycletree.route: bad source path"

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

(** The nodes in cyclic-number order, as paths from the root. *)
let cycle_order (t : Heap.tree) : (int * Ast.dir list) list =
  Heap.positions t
  |> List.map (fun (node, path) -> (Heap.get_field node "num", path))
  |> List.sort compare

(** Is the numbering a bijection [0 .. size-1]? *)
let numbering_is_bijection (t : Heap.tree) : bool =
  let nums = List.map fst (cycle_order t) in
  nums = List.init (Heap.size t) Fun.id

(** Tree distance between two positions (hops through the common
    ancestor). *)
let tree_distance (p : Ast.dir list) (q : Ast.dir list) : int =
  let rec strip p q =
    match (p, q) with
    | x :: p', y :: q' when x = y -> strip p' q'
    | _ -> List.length p + List.length q
  in
  strip p q

(** The {e cycle edges}: pairs of cyclically consecutive nodes that are not
    tree-adjacent and therefore need an extra link.  The Veanes–Barklund
    construction keeps this set small; its size is reported so the edge
    bounds of the cited papers can be checked experimentally. *)
let cycle_edges (t : Heap.tree) : (Ast.dir list * Ast.dir list) list =
  let order = cycle_order t in
  let n = List.length order in
  if n <= 1 then []
  else
    List.filteri (fun i _ -> i < n) order
    |> List.mapi (fun i (_, p) ->
           let _, q = List.nth order ((i + 1) mod n) in
           (p, q))
    |> List.filter (fun (p, q) -> tree_distance p q > 1)

(** Total number of communication links (tree edges plus cycle edges) —
    the quantity the cycletree papers bound by roughly [4n/3]. *)
let edge_count (t : Heap.tree) : int =
  Heap.size t - 1 + List.length (cycle_edges t)
