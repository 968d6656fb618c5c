module M = Map.Make (String)

(* Invariant: no zero coefficients are stored in [coeffs]. *)
type t = { coeffs : Rat.t M.t; cst : Rat.t }

let zero = { coeffs = M.empty; cst = Rat.zero }
let const c = { coeffs = M.empty; cst = c }
let of_int n = const (Rat.of_int n)

let put x c m = if Rat.sign c = 0 then M.remove x m else M.add x c m

let term c x = { coeffs = put x c M.empty; cst = Rat.zero }
let var x = term Rat.one x

let add a b =
  let coeffs =
    M.fold (fun x c acc ->
        let c' =
          match M.find_opt x acc with
          | Some d -> Rat.add c d
          | None -> c
        in
        put x c' acc)
      b.coeffs a.coeffs
  in
  { coeffs; cst = Rat.add a.cst b.cst }

let scale k e =
  if Rat.sign k = 0 then zero
  else
    { coeffs = M.map (Rat.mul k) e.coeffs; cst = Rat.mul k e.cst }

let neg e = scale Rat.minus_one e
let sub a b = add a (neg b)

let coeff e x =
  match M.find_opt x e.coeffs with Some c -> c | None -> Rat.zero

let constant e = e.cst
let vars e = M.bindings e.coeffs |> List.map fst

let subst e x e' =
  let c = coeff e x in
  if Rat.sign c = 0 then e
  else add { e with coeffs = M.remove x e.coeffs } (scale c e')

let rename r e =
  M.fold (fun x c acc -> add acc (term c (r x))) e.coeffs (const e.cst)

let eval rho e =
  M.fold (fun x c acc -> Rat.add acc (Rat.mul c (rho x))) e.coeffs e.cst

let is_const e = M.is_empty e.coeffs
let equal a b = M.equal Rat.equal a.coeffs b.coeffs && Rat.equal a.cst b.cst

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd (abs a) (abs b)

let scale_to_int_coeffs e =
  let dens =
    M.fold (fun _ (c : Rat.t) acc -> lcm acc c.den) e.coeffs e.cst.den
  in
  let e = scale (Rat.of_int dens) e in
  (* All coefficients are now integers.  Divide by the gcd [g] of variable
     coefficients; over the integers, [g*e' + c >= 0] iff
     [e' + floor(c/g) >= 0]. *)
  let g =
    M.fold (fun _ (c : Rat.t) acc -> gcd acc (abs c.num)) e.coeffs 0
  in
  if g <= 1 then e
  else
    let coeffs = M.map (fun c -> Rat.div c (Rat.of_int g)) e.coeffs in
    let cst = Rat.of_int (Rat.floor (Rat.div e.cst (Rat.of_int g))) in
    { coeffs; cst }

let pp ppf e =
  let terms = M.bindings e.coeffs in
  if terms = [] then Rat.pp ppf e.cst
  else begin
    let pp_term ppf (x, c) =
      if Rat.equal c Rat.one then Fmt.string ppf x
      else if Rat.equal c Rat.minus_one then Fmt.pf ppf "-%s" x
      else Fmt.pf ppf "%a*%s" Rat.pp c x
    in
    Fmt.(list ~sep:(any " + ") pp_term) ppf terms;
    if Rat.sign e.cst <> 0 then Fmt.pf ppf " + %a" Rat.pp e.cst
  end
