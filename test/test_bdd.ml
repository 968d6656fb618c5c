(* Tests for the ROBDD and MTBDD substrates: canonicity, boolean laws,
   quantification, and agreement with a reference evaluator. *)

let nvars = 5

(* A tiny reference representation: boolean formulas evaluated directly. *)
type form =
  | FVar of int
  | FNot of form
  | FAnd of form * form
  | FOr of form * form
  | FXor of form * form
  | FTrue
  | FFalse

let rec feval rho = function
  | FVar v -> rho v
  | FNot f -> not (feval rho f)
  | FAnd (a, b) -> feval rho a && feval rho b
  | FOr (a, b) -> feval rho a || feval rho b
  | FXor (a, b) -> feval rho a <> feval rho b
  | FTrue -> true
  | FFalse -> false

let rec to_bdd = function
  | FVar v -> Bdd.var v
  | FNot f -> Bdd.neg (to_bdd f)
  | FAnd (a, b) -> Bdd.conj (to_bdd a) (to_bdd b)
  | FOr (a, b) -> Bdd.disj (to_bdd a) (to_bdd b)
  | FXor (a, b) -> Bdd.xor (to_bdd a) (to_bdd b)
  | FTrue -> Bdd.top
  | FFalse -> Bdd.bot

let form_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> FVar v) (int_bound (nvars - 1));
            return FTrue; return FFalse ]
      else
        oneof
          [ map (fun v -> FVar v) (int_bound (nvars - 1));
            map (fun f -> FNot f) (self (n - 1));
            map2 (fun a b -> FAnd (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> FOr (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> FXor (a, b)) (self (n / 2)) (self (n / 2)) ])

let valuations =
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun v -> [ true :: v; false :: v ]) rest
  in
  go nvars |> List.map (fun bits v -> List.nth bits v)

let prop_eval_agrees =
  QCheck2.Test.make ~name:"bdd eval agrees with reference" ~count:300 form_gen
    (fun f ->
      let b = to_bdd f in
      List.for_all (fun rho -> Bdd.eval rho b = feval rho f) valuations)

let prop_canonical =
  QCheck2.Test.make ~name:"semantic equality implies physical equality"
    ~count:300
    QCheck2.Gen.(pair form_gen form_gen)
    (fun (f, g) ->
      let bf = to_bdd f and bg = to_bdd g in
      let sem_eq =
        List.for_all (fun rho -> feval rho f = feval rho g) valuations
      in
      sem_eq = Bdd.equal bf bg)

let prop_de_morgan =
  QCheck2.Test.make ~name:"de morgan" ~count:200
    QCheck2.Gen.(pair form_gen form_gen)
    (fun (f, g) ->
      let a = to_bdd f and b = to_bdd g in
      Bdd.equal (Bdd.neg (Bdd.conj a b)) (Bdd.disj (Bdd.neg a) (Bdd.neg b)))

let test_units () =
  Alcotest.(check bool) "top is top" true (Bdd.is_top Bdd.top);
  Alcotest.(check bool) "x and not x" true
    (Bdd.is_bot (Bdd.conj (Bdd.var 0) (Bdd.nvar 0)));
  Alcotest.(check bool) "x or not x" true
    (Bdd.is_top (Bdd.disj (Bdd.var 0) (Bdd.nvar 0)));
  Alcotest.(check int) "root variable" 0
    (Bdd.root_var (Bdd.conj (Bdd.var 2) (Bdd.var 0)));
  Alcotest.(check bool) "restrict" true
    (Bdd.equal (Bdd.restrict (Bdd.conj (Bdd.var 0) (Bdd.var 1)) 0 true)
       (Bdd.var 1))

let test_mtbdd_units () =
  let m = Mtbdd.ite (Bdd.var 0) (Mtbdd.const 1) (Mtbdd.const 2) in
  Alcotest.(check int) "eval hi" 1 (Mtbdd.eval (fun _ -> true) m);
  Alcotest.(check int) "eval lo" 2 (Mtbdd.eval (fun _ -> false) m);
  Alcotest.(check (list int)) "terminals" [ 1; 2 ] (Mtbdd.terminals m);
  let sum = Mtbdd.combiner ( + ) m m in
  Alcotest.(check (list int)) "combiner" [ 2; 4 ] (Mtbdd.terminals sum);
  match Mtbdd.find_terminal m 2 with
  | Some [ (0, false) ] -> ()
  | _ -> Alcotest.fail "find_terminal"

let prop_mtbdd_ite =
  QCheck2.Test.make ~name:"mtbdd ite agrees with bdd guard" ~count:200
    QCheck2.Gen.(triple form_gen (int_bound 7) (int_bound 7))
    (fun (f, x, y) ->
      let g = to_bdd f in
      let m = Mtbdd.ite g (Mtbdd.const x) (Mtbdd.const y) in
      List.for_all
        (fun rho ->
          Mtbdd.eval rho m = if Bdd.eval rho g then x else y)
        valuations)

(* A multi-terminal diagram: guarded cases, first match wins. *)
let mtbdd_gen =
  QCheck2.Gen.(
    map2
      (fun cases default ->
        List.fold_right
          (fun (f, x) acc -> Mtbdd.ite (to_bdd f) (Mtbdd.const x) acc)
          cases (Mtbdd.const default))
      (list_size (int_range 1 4) (pair form_gen (int_bound 9)))
      (int_bound 9))

let prop_mapper =
  QCheck2.Test.make ~name:"mapper agrees with f after eval" ~count:200
    QCheck2.Gen.(pair mtbdd_gen mtbdd_gen)
    (fun (m1, m2) ->
      let f x = (x * 7) mod 4 in
      let map = Mtbdd.mapper f in
      (* m1 mapped before and after m2, so the memo is shared across
         diagrams *)
      let r1 = map m1 in
      let r2 = map m2 in
      map m1 == r1
      && List.for_all
           (fun rho ->
             Mtbdd.eval rho r1 = f (Mtbdd.eval rho m1)
             && Mtbdd.eval rho r2 = f (Mtbdd.eval rho m2))
           valuations)

let prop_terminal_scanner =
  QCheck2.Test.make ~name:"terminal_scanner reports each terminal once"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 5) mtbdd_gen)
    (fun ms ->
      let scan = Mtbdd.terminal_scanner () in
      let reports = List.map scan ms in
      let reported = List.concat reports in
      List.for_all (fun r -> List.sort Int.compare r = r) reports
      && List.length (List.sort_uniq Int.compare reported)
         = List.length reported
      && List.sort Int.compare reported
         = List.sort_uniq Int.compare (List.concat_map Mtbdd.terminals ms))

let prop_restricter =
  QCheck2.Test.make ~name:"restricter agrees with eval at the cofactor"
    ~count:200
    QCheck2.Gen.(triple mtbdd_gen (int_bound (nvars - 1)) bool)
    (fun (m, v, b) ->
      let r = Mtbdd.restricter v b m in
      Mtbdd.restricter v b m == r
      && List.for_all
           (fun rho ->
             Mtbdd.eval rho r
             = Mtbdd.eval (fun x -> if x = v then b else rho x) m)
           valuations)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "units" `Quick test_units;
          qt prop_eval_agrees;
          qt prop_canonical;
          qt prop_de_morgan;
        ] );
      ( "mtbdd",
        [
          Alcotest.test_case "units" `Quick test_mtbdd_units;
          qt prop_mtbdd_ite;
          qt prop_mapper;
          qt prop_terminal_scanner;
          qt prop_restricter;
        ] );
    ]
