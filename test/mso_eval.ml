let eval tree assignment formula =
  let all_positions = List.map snd (Treeauto.tree_positions tree) in
  let subtree path =
    let rec go t = function
      | [] -> Some t
      | d :: rest -> (
        match t with
        | Treeauto.Leaf _ -> None
        | Treeauto.Node (_, l, r) -> go (if d = 0 then l else r) rest)
    in
    go tree path
  in
  let rec prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && prefix xs' ys'
    | _ -> false
  in
  let lookup asg v =
    match List.assoc_opt v asg with
    | Some s -> s
    | None -> invalid_arg ("Mso_eval.eval: unbound variable " ^ v)
  in
  let norm = List.sort_uniq compare in
  (* [b] is child [d] of [a], an inner node *)
  let child d asg a b =
    match (norm (lookup asg a), norm (lookup asg b)) with
    | [ pa ], [ pb ] ->
      pb = pa @ [ d ]
      && (match subtree pa with Some (Treeauto.Node _) -> true | _ -> false)
    | _ -> false
  in
  let rec go asg (f : Mso.formula) =
    match f.node with
    | True -> true
    | False -> false
    | EmptySet a -> lookup asg a = []
    | Sing a -> List.length (norm (lookup asg a)) = 1
    | Mem (a, b) -> (
      match norm (lookup asg a) with
      | [ p ] -> List.mem p (lookup asg b)
      | _ -> false)
    | EqPos (a, b) -> norm (lookup asg a) = norm (lookup asg b)
    | LeftOf (a, b) -> child 0 asg a b
    | RightOf (a, b) -> child 1 asg a b
    | Root a -> norm (lookup asg a) = [ [] ]
    | IsNil a -> (
      match norm (lookup asg a) with
      | [ p ] -> (
        match subtree p with Some (Treeauto.Leaf _) -> true | _ -> false)
      | _ -> false)
    | AgreeAbove (z, strict, incl) -> (
      match norm (lookup asg z) with
      | [ pz ] ->
        let agree pairs v =
          List.for_all
            (fun (a, b) ->
              List.mem v (lookup asg a) = List.mem v (lookup asg b))
            pairs
        in
        List.for_all
          (fun v ->
            if v = pz then agree incl v
            else if prefix v pz then agree (strict @ incl) v
            else true)
          all_positions
      | _ -> false)
    | Not f -> not (go asg f)
    | And fs -> List.for_all (go asg) fs
    | Or fs -> List.exists (go asg) fs
    | Imp (a, b) -> (not (go asg a)) || go asg b
    | Iff (a, b) -> go asg a = go asg b
    | Exists1 (x, f) ->
      List.exists (fun p -> go ((x, [ p ]) :: asg) f) all_positions
    | Forall1 (x, f) ->
      List.for_all (fun p -> go ((x, [ p ]) :: asg) f) all_positions
  in
  go assignment formula
