(* Tests for exact rationals, linear expressions, and the Omega-test LIA
   satisfiability procedure. *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_basics () =
  Alcotest.check rat "normalize" (Rat.make 1 2) (Rat.make 2 4);
  Alcotest.check rat "negative den" (Rat.make (-1) 2) (Rat.make 1 (-2));
  Alcotest.check rat "add" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "mul" (Rat.make 1 3) (Rat.mul (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check int) "floor -1/2" (-1) (Rat.floor (Rat.make (-1) 2));
  Alcotest.(check int) "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  Alcotest.check rat "div" (Rat.make 3 4) (Rat.div (Rat.make 1 2) (Rat.make 2 3))

let rat_gen =
  QCheck2.Gen.(
    map2 (fun n d -> Rat.make n (1 + abs d)) (int_range (-50) 50)
      (int_range 0 20))

let prop_rat_field =
  QCheck2.Test.make ~name:"rat add/sub round trip" ~count:500
    QCheck2.Gen.(pair rat_gen rat_gen)
    (fun (a, b) -> Rat.equal a (Rat.sub (Rat.add a b) b))

let prop_rat_compare =
  QCheck2.Test.make ~name:"compare consistent with float" ~count:500
    QCheck2.Gen.(pair rat_gen rat_gen)
    (fun (a, b) ->
      let c = Rat.compare a b in
      let f = compare (Rat.to_float a) (Rat.to_float b) in
      (* floats are exact for these small values *)
      c = f)

(* --- Linear expressions --- *)

let x = Lin.var "x"
let y = Lin.var "y"
let z = Lin.var "z"

let test_lin_basics () =
  let e = Lin.add (Lin.scale (Rat.of_int 2) x) (Lin.of_int 3) in
  Alcotest.check rat "coeff" (Rat.of_int 2) (Lin.coeff e "x");
  Alcotest.check rat "const" (Rat.of_int 3) (Lin.constant e);
  let e' = Lin.subst e "x" (Lin.add y (Lin.of_int 1)) in
  (* 2(y+1)+3 = 2y+5 *)
  Alcotest.check rat "subst coeff" (Rat.of_int 2) (Lin.coeff e' "y");
  Alcotest.check rat "subst const" (Rat.of_int 5) (Lin.constant e');
  Alcotest.(check bool) "x - x = 0" true (Lin.is_const (Lin.sub x x));
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Lin.vars (Lin.add x y))

let test_lin_tighten () =
  (* 2x - 1 >= 0 over Z is x - 1 >= 0 after tightening: 2x >= 1 iff x >= 1. *)
  let e = Lin.sub (Lin.scale (Rat.of_int 2) x) (Lin.of_int 1) in
  let t = Lin.scale_to_int_coeffs e in
  Alcotest.check rat "coeff tightened" Rat.one (Lin.coeff t "x");
  Alcotest.check rat "const floored" Rat.minus_one (Lin.constant t)

(* --- LIA satisfiability --- *)

let test_lia_basic () =
  Alcotest.(check bool) "x>=0 sat" true (Lia.sat [ Lia.ge0 x ]);
  Alcotest.(check bool) "x>=1 and x<=0 unsat" false
    (Lia.sat [ Lia.gt0 x; Lia.le0 x ]);
  (* 2x = 1 has no integer solution *)
  let two_x = Lin.scale (Rat.of_int 2) x in
  Alcotest.(check bool) "2x=1 unsat over Z" false
    (let e = Lin.sub two_x (Lin.of_int 1) in
     Lia.sat [ Lia.ge0 e; Lia.le0 e ]);
  (* x + y >= 3, x <= 1, y <= 1 unsat *)
  Alcotest.(check bool) "sum bound unsat" false
    (Lia.sat
       [
         Lia.ge0 (Lin.sub (Lin.add x y) (Lin.of_int 3));
         Lia.ge0 (Lin.sub (Lin.of_int 1) x);
         Lia.ge0 (Lin.sub (Lin.of_int 1) y);
       ]);
  (* x + y >= 2 with the same bounds is sat (x = y = 1) *)
  Alcotest.(check bool) "sum bound sat" true
    (Lia.sat
       [
         Lia.ge0 (Lin.sub (Lin.add x y) (Lin.of_int 2));
         Lia.ge0 (Lin.sub (Lin.of_int 1) x);
         Lia.ge0 (Lin.sub (Lin.of_int 1) y);
       ])

let test_lia_three_vars () =
  (* x < y < z < x is unsat *)
  Alcotest.(check bool) "cycle unsat" false
    (Lia.sat [ Lia.gt0 (Lin.sub y x); Lia.gt0 (Lin.sub z y); Lia.gt0 (Lin.sub x z) ]);
  Alcotest.(check bool) "chain sat" true
    (Lia.sat [ Lia.gt0 (Lin.sub y x); Lia.gt0 (Lin.sub z y) ])

let test_lia_implies () =
  (* x >= 2 implies x >= 1 *)
  Alcotest.(check bool) "monotone" true
    (Lia.implies [ Lia.ge0 (Lin.sub x (Lin.of_int 2)) ]
       (Lia.ge0 (Lin.sub x (Lin.of_int 1))));
  Alcotest.(check bool) "not reverse" false
    (Lia.implies [ Lia.ge0 (Lin.sub x (Lin.of_int 1)) ]
       (Lia.ge0 (Lin.sub x (Lin.of_int 2))));
  Alcotest.(check bool) "equiv same" true
    (Lia.equiv [ Lia.ge0 x ] [ Lia.ge0 x; Lia.ge0 (Lin.add x (Lin.of_int 1)) ])

let test_lia_negation () =
  (* a and not a is unsat for any atom *)
  let a = Lia.ge0 (Lin.sub x y) in
  Alcotest.(check bool) "excluded middle" false (Lia.sat [ a; Lia.neg_atom a ])

(* 2x - 3y = 1 with x >= 20: both bound coefficients of every variable
   exceed 1, so neither Omega shadow decides it, and its smallest model
   (x = 20, y = 13) lies far outside any small search box.  An undecided
   system must count as satisfiable: an unsat answer drops a feasible
   path-condition assignment from the encoding, which can prove a racy
   program race-free. *)
let test_lia_undecided_is_sat () =
  let two_x_three_y =
    Lin.sub (Lin.scale (Rat.of_int 2) x) (Lin.scale (Rat.of_int 3) y)
  in
  let conj =
    [
      Lia.ge0 (Lin.sub two_x_three_y (Lin.of_int 1));
      Lia.ge0 (Lin.add (Lin.neg two_x_three_y) (Lin.of_int 1));
      Lia.ge0 (Lin.sub x (Lin.of_int 20));
    ]
  in
  let rho = function "x" -> Rat.of_int 20 | _ -> Rat.of_int 13 in
  Alcotest.(check bool) "x = 20, y = 13 is a model" true
    (List.for_all (fun e -> Rat.sign (Lin.eval rho e) >= 0) conj);
  Alcotest.(check bool) "sat" true (Lia.sat conj)

(* Random conjunctions with small unit-coefficient atoms, checked against
   brute force over a box that safely contains a solution if one exists
   within it; we only check agreement on the box-decidable direction:
   if brute force finds a solution, Lia.sat must answer true. *)
let atom_gen =
  QCheck2.Gen.(
    let term =
      oneof
        [
          return x; return y; return z; map Lin.of_int (int_range (-4) 4);
          map (fun v -> Lin.neg v) (oneofl [ x; y; z ]);
        ]
    in
    map2 (fun a b -> Lin.add a b) term term)

let prop_lia_sound =
  QCheck2.Test.make ~name:"brute-force solution implies sat" ~count:300
    QCheck2.Gen.(list_size (int_range 1 4) atom_gen)
    (fun atoms ->
      let solutions = ref false in
      for vx = -4 to 4 do
        for vy = -4 to 4 do
          for vz = -4 to 4 do
            let rho = function
              | "x" -> Rat.of_int vx
              | "y" -> Rat.of_int vy
              | "z" -> Rat.of_int vz
              | _ -> Rat.zero
            in
            if List.for_all (fun e -> Rat.sign (Lin.eval rho e) >= 0) atoms
            then solutions := true
          done
        done
      done;
      (not !solutions) || Lia.sat atoms)

let prop_lia_unsat_sound =
  QCheck2.Test.make ~name:"unsat answer has no solution in box" ~count:300
    QCheck2.Gen.(list_size (int_range 1 4) atom_gen)
    (fun atoms ->
      Lia.sat atoms
      ||
      let found = ref false in
      for vx = -6 to 6 do
        for vy = -6 to 6 do
          for vz = -6 to 6 do
            let rho = function
              | "x" -> Rat.of_int vx
              | "y" -> Rat.of_int vy
              | "z" -> Rat.of_int vz
              | _ -> Rat.zero
            in
            if List.for_all (fun e -> Rat.sign (Lin.eval rho e) >= 0) atoms
            then found := true
          done
        done
      done;
      not !found)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "arith"
    [
      ( "rat",
        [
          Alcotest.test_case "basics" `Quick test_rat_basics;
          qt prop_rat_field;
          qt prop_rat_compare;
        ] );
      ( "lin",
        [
          Alcotest.test_case "basics" `Quick test_lin_basics;
          Alcotest.test_case "tighten" `Quick test_lin_tighten;
        ] );
      ( "lia",
        [
          Alcotest.test_case "basic" `Quick test_lia_basic;
          Alcotest.test_case "three vars" `Quick test_lia_three_vars;
          Alcotest.test_case "implies" `Quick test_lia_implies;
          Alcotest.test_case "negation" `Quick test_lia_negation;
          Alcotest.test_case "undecided is sat" `Quick
            test_lia_undecided_is_sat;
          qt prop_lia_sound;
          qt prop_lia_unsat_sound;
        ] );
    ]
