let src = Logs.Src.create "retreet.lia" ~doc:"Linear integer arithmetic"

module Log = (val Logs.src_log src : Logs.LOG)

type atom = Lin.t
type conj = atom list

let ge0 e = e
let gt0 e = Lin.sub e (Lin.of_int 1)
let le0 e = Lin.neg e
let neg_atom e = Lin.sub (Lin.neg e) (Lin.of_int 1)

let pp_atom ppf e = Fmt.pf ppf "%a >= 0" Lin.pp e
let pp_conj = Fmt.(list ~sep:(any " /\\ ") pp_atom)

(* Normalize a conjunction: integer-tighten every atom; detect constant
   atoms.  Returns [None] if some atom is trivially false. *)
let normalize conj =
  let rec go acc = function
    | [] -> Some acc
    | e :: rest ->
      let e = Lin.scale_to_int_coeffs e in
      if Lin.is_const e then
        if Rat.sign (Lin.constant e) >= 0 then go acc rest else None
      else go (e :: acc) rest
  in
  go [] conj

let all_vars conj =
  List.fold_left (fun acc e -> acc @ Lin.vars e) [] conj
  |> List.sort_uniq String.compare

(* Split the conjunction w.r.t. variable [x] into lower bounds
   [(a, r)] meaning [a*x + r >= 0] with [a > 0], upper bounds [(b, s)]
   meaning [-b*x + s >= 0] with [b > 0], and atoms not mentioning [x]. *)
let split_on x conj =
  List.fold_left
    (fun (lows, ups, rest) e ->
      let c = Lin.coeff e x in
      let r = Lin.subst e x Lin.zero in
      match Rat.sign c with
      | 0 -> (lows, ups, e :: rest)
      | s when s > 0 -> ((c.Rat.num, r) :: lows, ups, rest)
      | _ -> (lows, (-c.Rat.num, r) :: ups, rest))
    ([], [], []) conj

(* Choose the elimination variable minimizing |lowers| * |uppers|. *)
let pick_var conj =
  let vars = all_vars conj in
  let cost x =
    let lows, ups, _ = split_on x conj in
    List.length lows * List.length ups
  in
  match vars with
  | [] -> None
  | v :: rest ->
    Some
      (List.fold_left
         (fun best x -> if cost x < cost best then x else best)
         v rest)

(* One step of shadow construction.  [dark] selects the dark shadow. *)
let shadow ~dark x conj =
  let lows, ups, rest = split_on x conj in
  let combined =
    List.concat_map
      (fun (a, r) ->
        List.map
          (fun (b, s) ->
            (* lower: a*x >= -r; upper: b*x <= s.
               real:  a*s + b*r >= 0
               dark:  a*s + b*r >= (a-1)(b-1) *)
            let e =
              Lin.add (Lin.scale (Rat.of_int a) s) (Lin.scale (Rat.of_int b) r)
            in
            if dark then Lin.sub e (Lin.of_int ((a - 1) * (b - 1))) else e)
          ups)
      lows
  in
  combined @ rest

(* Omega-test satisfiability: [Some b] when decided, [None] when the
   fuel ran out or neither shadow decides (an infeasible real shadow
   proves unsat, a feasible dark shadow proves sat; with a unit
   coefficient on one side the two coincide and the answer is exact). *)
let rec omega ~fuel conj =
  Engine.tick ();
  if fuel = 0 then None
  else
    match normalize conj with
    | None -> Some false
    | Some [] -> Some true
    | Some conj -> (
      match pick_var conj with
      | None -> Some true (* only trivially-true constants remained *)
      | Some x ->
        let lows, ups, _ = split_on x conj in
        let unit_side =
          List.for_all (fun (a, _) -> a = 1) lows
          || List.for_all (fun (b, _) -> b = 1) ups
        in
        if unit_side then omega ~fuel:(fuel - 1) (shadow ~dark:false x conj)
        else begin
          match omega ~fuel:(fuel - 1) (shadow ~dark:false x conj) with
          | Some false -> Some false
          | _ -> (
            match omega ~fuel:(fuel - 1) (shadow ~dark:true x conj) with
            | Some true -> Some true
            | _ -> None)
        end)

(* Fault site: nudge the constant term of the first atom before deciding
   satisfiability — models a transcription slip in constraint generation. *)
let site_coeff_perturb =
  Faults.register ~name:"arith.coeff_perturb"
    ~descr:"subtract 1 from the constant term of the first atom before sat" ()

let sat conj =
  let conj =
    match conj with
    | e :: rest when Faults.fire site_coeff_perturb ->
      Lin.sub e (Lin.of_int 1) :: rest
    | _ -> conj
  in
  match omega ~fuel:64 conj with
  | Some b -> b
  | None ->
    Log.warn (fun m ->
        m "Omega test inconclusive on %a; answering sat" pp_conj conj);
    true

let implies hyp a = not (sat (neg_atom a :: hyp))
let implies_conj hyp concl = List.for_all (implies hyp) concl
let equiv c1 c2 = implies_conj c1 c2 && implies_conj c2 c1
