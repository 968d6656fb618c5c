(* Benchmark harness: regenerates the paper's evaluation (Section 5).

   The paper reports, for four case studies, seven verification queries
   with the MONA solve time for each (its de-facto "Table 1"); Section 6
   argues qualitatively that coarser frameworks cannot handle these cases
   (our "Table 2"); and the framework pipeline of Figure 1 motivates a
   scaling study of the solver itself ("Figure A"), ablations of the
   encoding ("Figure C") and microbenchmarks of the automaton substrate
   ("Figure B", Bechamel).

   Absolute times are not comparable (the paper used MONA 1.x on a 40-core
   server; this repository ships its own WS2S-style solver), but the
   *shape* — which queries are valid, which produce true-positive
   counterexamples, and which case study dominates the cost — is
   reproduced.

   Usage:  main.exe [--full] [--skip-micro] [--smoke]
     --full        also run E6 (cycletree fusion) under a generous (1 h)
                   budget — mirroring the paper, where it took 490 s with
                   MONA
     --skip-micro  skip the Bechamel microbenchmarks
     --smoke       CI smoke mode: only Table 1, validated at level full
                   under budgets (60 s per query, 10 s for the heavy E5
                   and E6, which may return Unknown), with the validation
                   overhead per row and in aggregate

   Exits 1 when a Table 1 row gives a wrong definite verdict or fails
   self-validation. *)

let full = Array.exists (( = ) "--full") Sys.argv
let skip_micro = Array.exists (( = ) "--skip-micro") Sys.argv
let smoke = Array.exists (( = ) "--smoke") Sys.argv

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Table 1: the seven verification queries                              *)

(* [Fast] rows must reach their verdict within --smoke's 60 s.  [Heavy]
   rows get 10 s there and may return Unknown.  E6, the paper's own
   outlier, is [Heavy] under --smoke too, and the paper table runs it
   only under --full, with 1 h: a regression that wedges it surfaces as
   an Unknown row instead of hanging the harness. *)
type cost = Fast | Heavy | Outlier

let cost (row : Programs.row) =
  match row.id with "E5" -> Heavy | "E6" -> Outlier | _ -> Fast

let run_row ~level ~budget (row : Programs.row) =
  match row.query with
  | Race p ->
    let r, report = Validate.check_data_race ~level ~budget (Programs.load p) in
    (Validate.render Analysis.render_race (r, report), report)
  | Equiv (p, p', map) ->
    let r, report =
      Validate.check_equivalence ~level ~budget (Programs.load p)
        (Programs.load p') ~map
    in
    (Validate.render Analysis.render_equiv (r, report), report)

let replay_confirmed (report : Validate.report) =
  List.exists
    (fun (c : Validate.check) ->
      List.mem c.name [ "race.replay"; "equiv.replay" ]
      && c.status = Validate.Passed)
    report.Validate.checks

(* One loop, two modes.  The paper table validates at [Witness], which
   replays every counterexample; --smoke validates at [Full] under the
   smoke budgets.  A row fails on a wrong definite verdict or a failed
   validation (exit 4); Unknown (exit 3) is acceptable on the heavy
   rows.  Returns the summary lines and the number of failed rows. *)
let table1 () =
  let level = if smoke then Validate.Full else Validate.Witness in
  let tag = if smoke then "smoke" else "table 1" in
  if smoke then begin
    Fmt.pr "== Smoke suite: budget-capped verification subset ==@.";
    Fmt.pr "  (validated at level full; overhead = validation / query time)@."
  end
  else Fmt.pr "== Table 1: verification queries (Section 5) ==@.";
  let failures = ref 0 and total_query = ref 0. and total_validation = ref 0. in
  let summary =
    List.filter_map
      (fun (row : Programs.row) ->
        let budget =
          match (cost row, smoke) with
          | Fast, true -> Some (Engine.budget ~timeout:60. ())
          | (Heavy | Outlier), true -> Some (Engine.budget ~timeout:10. ())
          | (Fast | Heavy), false -> Some Engine.unlimited
          | Outlier, false ->
            if full then Some (Engine.budget ~timeout:3600. ()) else None
        in
        match budget with
        | None ->
          Fmt.pr "  [%s] %s / %s: skipped (pass --full; the paper itself \
                  needed %s)@."
            row.id row.study row.title row.paper_time;
          None
        | Some budget ->
          let (text, code), report = run_row ~level ~budget row in
          let dt = report.Validate.query_time in
          total_query := !total_query +. dt;
          total_validation :=
            !total_validation +. report.Validate.validation_time;
          let status =
            if code = row.expect then "ok"
            else if code = 3 && cost row <> Fast then
              "acceptable under the budget"
            else begin
              incr failures;
              Printf.sprintf "FAIL: expected exit %d" row.expect
            end
          in
          let overhead =
            if dt > 0. then
              Printf.sprintf "+%.0f%%"
                (100. *. report.Validate.validation_time /. dt)
            else "-"
          in
          Fmt.pr "  [%s] %-44s %7.2fs  validation %-5s (%s)@." row.id text dt
            overhead status;
          Format.pp_print_flush Fmt.stdout ();
          Some
            (Fmt.str "  %-4s %-18s %-34s %-16s %-10s %-44s %8.2fs %s" row.id
               row.study row.title row.paper_result row.paper_time text dt
               (if replay_confirmed report then "replay-confirmed" else "")))
      Programs.table1
  in
  if !total_query > 0. then
    Fmt.pr "@.%s: total validation overhead %.0f%% of query wall-clock \
            (%.2fs / %.2fs)@."
      tag
      (100. *. !total_validation /. !total_query)
      !total_validation !total_query;
  if !failures = 0 then Fmt.pr "%s: all verdicts consistent@." tag
  else Fmt.pr "%s: %d inconsistent verdict(s)@." tag !failures;
  (summary, !failures)

(* ------------------------------------------------------------------ *)
(* Table 2: precision against the coarse baseline (Section 6)           *)

let table2 () =
  Fmt.pr "@.== Table 2: Retreet vs coarse traversal-level analysis ==@.";
  let cases =
    [
      ("size-counting: fuse Odd,Even", Programs.size_counting_seq, "Odd",
       "Even", "valid (E1)");
      ("tree-mutation: fuse Swap,IncrmLeft", Programs.tree_mutation_seq,
       "Swap", "IncrmLeft", "valid (E4)");
      ("css: fuse ConvertValues,MinifyFont", Programs.css_minification_seq,
       "ConvertValues", "MinifyFont", "valid (E5)");
      ("cycletree: parallelize numbering,routing", Programs.cycletree_seq,
       "RootMode", "ComputeRouting", "counterexample (E7)");
    ]
  in
  List.iter
    (fun (name, src, a, b, retreet) ->
      let info = Programs.load src in
      Fmt.pr "  %-42s baseline: %-38s retreet: %s@." name
        (Fmt.str "%a" Baseline.pp_verdict (Baseline.can_fuse info.prog a b))
        retreet)
    cases

(* ------------------------------------------------------------------ *)
(* Figure A: solver scaling with the number of fused passes             *)

(* k sequential passes in the CSS style; fusing them scales the number of
   blocks, conditions and labels linearly. *)
let k_pass_program k : string =
  let pass i =
    Printf.sprintf
      {|P%d(n) {
  if (n == nil) {
    p%dnil: return
  } else {
    p%da: P%d(n.l);
    p%db: P%d(n.r);
    if (n.f%d > 0) {
      p%dset: n.value = n.value - %d;
      return
    } else {
      p%dskip: return
    }
  }
}|}
      i i i i i i i i (i + 1) i
  in
  let main_calls =
    String.concat ";\n  "
      (List.init k (fun i -> Printf.sprintf "m%d: P%d(n)" i i))
  in
  String.concat "\n\n" (List.init k pass)
  ^ Printf.sprintf "\n\nMain(n) {\n  %s;\n  mret: return\n}" main_calls

let k_pass_fused k : string =
  let branch i =
    Printf.sprintf
      {|    if (n.f%d > 0) {
      p%dset: n.value = n.value - %d;
      return
    } else {
      p%dskip: return
    }|}
      i i (i + 1) i
  in
  Printf.sprintf
    {|Fused(n) {
  if (n == nil) {
    p0nil: return
  } else {
    fa: Fused(n.l);
    fb: Fused(n.r);
%s
  }
}

Main(n) {
  m0: Fused(n);
  mret: return
}|}
    (String.concat ";\n" (List.init k branch))

let k_pass_map k =
  List.concat
    (List.init k (fun i ->
         [ (Printf.sprintf "p%dnil" i, "p0nil");
           (Printf.sprintf "p%dset" i, Printf.sprintf "p%dset" i);
           (Printf.sprintf "p%dskip" i, Printf.sprintf "p%dskip" i) ]))
  @ [ ("mret", "mret") ]

let figure_a () =
  Fmt.pr "@.== Figure A: fusion-verification time vs number of passes ==@.";
  List.iter
    (fun k ->
      let p = Programs.load (k_pass_program k) in
      let p' = Programs.load (k_pass_fused k) in
      let result, dt =
        time (fun () -> Analysis.check_equivalence p p' ~map:(k_pass_map k))
      in
      Fmt.pr "  k=%d passes (%2d blocks): %-44s %.2fs@." k
        (Blocks.nblocks p)
        (fst (Analysis.render_equiv result))
        dt;
      Format.pp_print_flush Fmt.stdout ())
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Figure C: ablations of the encoding's design choices                 *)

let figure_c () =
  Fmt.pr "@.== Figure C: encoding ablations ==@.";
  let row name verdict_line check =
    let result, dt = time check in
    Fmt.pr "  %-46s %-44s %6.2fs@." name (fst (verdict_line result)) dt;
    Format.pp_print_flush Fmt.stdout ()
  in
  let race name p ~field_sensitive ~prune =
    row name Analysis.render_race (fun () ->
        Analysis.check_data_race ~field_sensitive ~prune p)
  in
  let equivalence name p p' map ~field_sensitive ~prune =
    row name Analysis.render_equiv (fun () ->
        Analysis.check_equivalence ~field_sensitive ~prune p p' ~map)
  in
  let sc = Programs.load Programs.size_counting in
  Fmt.pr " E3 (race query), dependence granularity:@.";
  race "  field-sensitive (this implementation)" sc ~field_sensitive:true
    ~prune:true;
  race "  node-granularity (the paper's presentation)" sc
    ~field_sensitive:false ~prune:true;
  Fmt.pr " E3, reachability pruning:@.";
  race "  with pruning" sc ~field_sensitive:true ~prune:true;
  race "  without pruning" sc ~field_sensitive:true ~prune:false;
  let css = Programs.load Programs.css_minification_seq in
  let cssf = Programs.load Programs.css_minification_fused in
  let map = Programs.css_minification_map in
  Fmt.pr " E5 (fusion), reachability pruning:@.";
  equivalence "  with pruning" css cssf map ~field_sensitive:true ~prune:true;
  equivalence "  without pruning" css cssf map ~field_sensitive:true
    ~prune:false;
  Fmt.pr " E5, dependence granularity:@.";
  equivalence "  node-granularity" css cssf map ~field_sensitive:false
    ~prune:true

(* ------------------------------------------------------------------ *)
(* Figure B: microbenchmarks of the substrates (Bechamel)               *)

let figure_b_raw () =
  let open Bechamel in
  let open Toolkit in
  Fmt.pr "@.== Figure B: substrate microbenchmarks ==@.";
  (* a mid-sized automaton workload: the running example's configuration *)
  let info = Programs.load Programs.size_counting in
  let enc = Encode.make info in
  let ns1 = { Encode.tag = ""; cfg = 1 } in
  let env = Encode.query_env [ (enc, [ ns1 ]) ] in
  let config_formula = Encode.configuration enc ns1 ~q:10 in
  let base = Mso.compile env config_formula in
  let sing = Mso.compile env (Mso.mk (Mso.Sing "x2")) in
  let tree = Heap.complete_tree ~height:6 ~init:(fun _ -> []) in
  let tests =
    [
      Test.make ~name:"treeauto.inter+minimize" (Staged.stage (fun () ->
          ignore (Treeauto.minimize (Treeauto.inter base sing))));
      Test.make ~name:"treeauto.project" (Staged.stage (fun () ->
          ignore (Treeauto.project 0 base)));
      Test.make ~name:"treeauto.witness" (Staged.stage (fun () ->
          ignore (Treeauto.witness sing)));
      Test.make ~name:"interp.run (63-node tree)" (Staged.stage (fun () ->
          ignore (Interp.run info (Heap.copy tree) [])));
      Test.make ~name:"lia.sat (4 atoms)" (Staged.stage (fun () ->
          let x = Lin.var "x" and y = Lin.var "y" in
          ignore
            (Lia.sat
               [ Lia.gt0 x; Lia.le0 (Lin.sub x (Lin.of_int 10));
                 Lia.gt0 (Lin.sub y x); Lia.le0 y ])));
      Test.make ~name:"bdd.conj (32 iff pairs)" (Staged.stage (fun () ->
          (* adjacent pairs: the linear-size ordering (the distant-pair
             variant is the classic exponential counterexample) *)
          ignore
            (List.fold_left
               (fun acc i ->
                 Bdd.conj acc (Bdd.iff (Bdd.var (2 * i)) (Bdd.var ((2 * i) + 1))))
               Bdd.top
               (List.init 32 Fun.id))));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg instances test
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      Instance.monotonic_clock
      (benchmark (Test.make_grouped ~name:"substrates" ~fmt:"%s %s" tests))
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "  %-34s %10.0f ns/op@." name est
      | _ -> Fmt.pr "  %-34s (no estimate)@." name)
    results

let figure_b () =
  (* Bechamel can fail on pathological clocks or single-sample runs; the
     microbenchmarks are informative, not load-bearing *)
  try figure_b_raw ()
  with exn ->
    Fmt.pr "  microbenchmarks unavailable: %s@." (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)

let () =
  if smoke then begin
    Fmt.pr "Retreet benchmark harness — smoke mode@.@.";
    let _, failures = table1 () in
    exit (if failures = 0 then 0 else 1)
  end;
  Fmt.pr "Retreet benchmark harness (paper: PPoPP 2021 evaluation)@.@.";
  let t0 = Unix.gettimeofday () in
  let summary, failures = table1 () in
  table2 ();
  figure_a ();
  figure_c ();
  if not skip_micro then figure_b ();
  Fmt.pr "@.== Summary (paper vs measured) ==@.";
  Fmt.pr "  %-4s %-18s %-34s %-16s %-10s %-44s %9s@." "id" "study" "query"
    "paper" "paper-t" "measured" "time";
  List.iter (Fmt.pr "%s@.") summary;
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0);
  if failures > 0 then exit 1
