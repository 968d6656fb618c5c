type t = Node of string * Mso.var list * t list

let rec of_formula (f : Mso.formula) =
  let leaf tag vs = Node (tag, vs, []) in
  let pairs tag ps = Node (tag, List.concat_map (fun (a, b) -> [ a; b ]) ps, []) in
  match f.node with
  | True -> leaf "true" []
  | False -> leaf "false" []
  | EmptySet a -> leaf "empty" [ a ]
  | Sing a -> leaf "sing" [ a ]
  | Mem (a, b) -> leaf "mem" [ a; b ]
  | EqPos (a, b) -> leaf "eqpos" [ a; b ]
  | LeftOf (a, b) -> leaf "left" [ a; b ]
  | RightOf (a, b) -> leaf "right" [ a; b ]
  | Root a -> leaf "root" [ a ]
  | IsNil a -> leaf "isnil" [ a ]
  | AgreeAbove (z, strict, incl) ->
    Node ("agree", [ z ], [ pairs "strict" strict; pairs "incl" incl ])
  | Not g -> Node ("not", [], [ of_formula g ])
  | And gs -> Node ("and", [], List.map of_formula gs)
  | Or gs -> Node ("or", [], List.map of_formula gs)
  | Imp (a, b) -> Node ("imp", [], [ of_formula a; of_formula b ])
  | Iff (a, b) -> Node ("iff", [], [ of_formula a; of_formula b ])
  | Exists1 (x, g) -> Node ("ex1", [ x ], [ of_formula g ])
  | Forall1 (x, g) -> Node ("all1", [ x ], [ of_formula g ])

let equal f g = of_formula f = of_formula g
