(* Benchmark harness: regenerates the paper's evaluation (Section 5).

   The paper reports, for four case studies, seven verification queries
   with the MONA solve time for each (its de-facto "Table 1"); Section 6
   argues qualitatively that coarser frameworks cannot handle these cases
   (our "Table 2"); and the framework pipeline of Figure 1 motivates a
   scaling study of the solver itself ("Figure A") plus microbenchmarks of
   the automaton substrate ("Figure B", Bechamel).

   Absolute times are not comparable (the paper used MONA 1.x on a 40-core
   server; this repository ships its own WS2S-style solver), but the
   *shape* — which queries are valid, which produce true-positive
   counterexamples, and which case study dominates the cost — is
   reproduced.

   Usage:  main.exe [--full] [--skip-micro] [--smoke] [-j N]
     --full        also run E6 (cycletree fusion) under a generous (1 h)
                   budget — mirroring the paper, where it took 490 s with
                   MONA
     --skip-micro  skip the Bechamel microbenchmarks
     --smoke       CI smoke mode: only the budget-capped verification
                   subset (fast queries under 60 s, heavy ones under
                   ~10 s, Unknown allowed for the heavy ones); exits
                   nonzero on any wrong or missing definite verdict.
                   Also runs the parallel batch comparison (serial vs
                   -j N worker domains, default 4) and writes the
                   machine-readable BENCH_parallel.json *)

let full = Array.exists (( = ) "--full") Sys.argv
let skip_micro = Array.exists (( = ) "--skip-micro") Sys.argv
let smoke = Array.exists (( = ) "--smoke") Sys.argv

let jobs =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "-j" then int_of_string_opt Sys.argv.(i + 1)
    else find (i + 1)
  in
  max 1 (Option.value (find 1) ~default:4)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type row = {
  id : string;
  study : string;
  query : string;
  paper_result : string;
  paper_time : string;
  our_result : string;
  our_time : float;
  validated : string;
}

let rows : row list ref = ref []

let add id study query paper_result paper_time (our_result, our_time)
    validated =
  rows :=
    { id; study; query; paper_result; paper_time; our_result; our_time;
      validated }
    :: !rows;
  Fmt.pr "  [%s] %s / %s: %s in %.2fs (paper: %s, %s) %s@." id study query
    (String.uppercase_ascii our_result)
    our_time paper_result paper_time validated;
  Format.pp_print_flush Fmt.stdout ()

(* ------------------------------------------------------------------ *)
(* Table 1: the seven verification queries                              *)

let map_fused =
  [ ("s0", "fnil"); ("s4", "fnil"); ("s3", "fret"); ("s7", "fret");
    ("s10", "s10") ]

let map_mutation =
  [ ("wnil", "wnil"); ("inil", "wnil"); ("wset", "wset");
    ("ileaf", "ileaf"); ("istep", "istep"); ("mret", "mret") ]

let map_css =
  [ ("cvnil", "cvnil"); ("mfnil", "cvnil"); ("rinil", "cvnil");
    ("cvset", "cvset"); ("cvskip", "cvskip"); ("mfset", "mfset");
    ("mfskip", "mfskip"); ("riset", "riset"); ("riskip", "riskip");
    ("mret", "mret") ]

let map_cycle =
  [ ("rmnil", "rmnil"); ("pmnil", "pmnil"); ("imnil", "imnil");
    ("tmnil", "tmnil"); ("rmset", "rmset"); ("pmset", "pmset");
    ("imset", "imset"); ("tmset", "tmset"); ("rtnil", "rtnil");
    ("crnil", "rmnil"); ("crnil", "pmnil"); ("crnil", "imnil");
    ("crnil", "tmnil"); ("crlz", "crlz"); ("crl", "crl"); ("crrz", "crrz");
    ("crr", "crr"); ("cmx1", "cmx1"); ("cmx2", "cmx2"); ("cmx3", "cmx3");
    ("cmx4", "cmx4"); ("cmn1", "cmn1"); ("cmn2", "cmn2"); ("cmn3", "cmn3");
    ("cmn4", "cmn4"); ("rtret", "rtret"); ("mret", "mret") ]

let unknown_str (u : Analysis.progress) =
  Printf.sprintf "unknown (%s, %d/%d pairs)"
    (Engine.resource_name u.reason.Engine.resource)
    u.pairs_done u.pairs_total

let equivalence ?(budget = Engine.unlimited) id study query paper_time p p'
    map =
  let result, dt =
    time (fun () -> Analysis.check_equivalence ~budget p p' ~map)
  in
  match result with
  | Analysis.Equivalent _ -> add id study query "valid" paper_time ("valid", dt) ""
  | Analysis.Not_equivalent cx ->
    let real = Analysis.replay_equivalence p p' cx in
    add id study query "counterexample" paper_time ("counterexample", dt)
      (Printf.sprintf "replay-confirmed=%b" real)
  | Analysis.Bisimulation_failed why ->
    add id study query "valid" paper_time ("bisim failed: " ^ why, dt) ""
  | Analysis.Equiv_unknown u ->
    add id study query "valid" paper_time (unknown_str u, dt) ""

let race ?(budget = Engine.unlimited) id study query paper_result paper_time
    p =
  let result, dt = time (fun () -> Analysis.check_data_race ~budget p) in
  match result with
  | Analysis.Race_free ->
    add id study query paper_result paper_time ("race-free", dt) ""
  | Analysis.Race cx ->
    let real = Analysis.replay_race p cx in
    add id study query paper_result paper_time ("race", dt)
      (Printf.sprintf "on (%s,%s), replay-confirmed=%b"
         (Blocks.block p cx.cx_q1).label (Blocks.block p cx.cx_q2).label real)
  | Analysis.Race_unknown u ->
    add id study query paper_result paper_time (unknown_str u, dt) ""

let table1 () =
  Fmt.pr "== Table 1: verification queries (Section 5) ==@.";
  let seq = Programs.load Programs.size_counting_seq in
  equivalence "E1" "size-counting" "fuse Odd;Even (Fig. 6a)" "0.14s" seq
    (Programs.load Programs.size_counting_fused)
    map_fused;
  equivalence "E2" "size-counting" "invalid fusion (Fig. 6b)" "0.14s" seq
    (Programs.load Programs.size_counting_fused_invalid)
    map_fused;
  race "E3" "size-counting" "Odd(n) || Even(n) races?" "race-free" "0.02s"
    (Programs.load Programs.size_counting);
  equivalence "E4" "tree-mutation" "fuse Swap;IncrmLeft (Fig. 7)" "0.12s"
    (Programs.load Programs.tree_mutation_seq)
    (Programs.load Programs.tree_mutation_fused)
    map_mutation;
  equivalence "E5" "css-minification" "fuse 3 passes (Fig. 8)" "6.88s"
    (Programs.load Programs.css_minification_seq)
    (Programs.load Programs.css_minification_fused)
    map_css;
  if full then
    (* generous rather than unlimited: a regression that wedges E6 now
       surfaces as an Unknown row instead of hanging the harness *)
    equivalence
      ~budget:(Engine.budget ~timeout:3600. ())
      "E6" "cycletree" "fuse numbering;routing (Fig. 9)" "490.55s"
      (Programs.load Programs.cycletree_seq)
      (Programs.load Programs.cycletree_fused)
      map_cycle
  else
    Fmt.pr "  [E6] cycletree / fuse numbering;routing: skipped (pass --full; \
            the paper itself needed 490.55s)@.";
  race "E7" "cycletree" "numbering || routing races?" "counterexample"
    "0.95s"
    (Programs.load Programs.cycletree_par)

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
      let verdict =
        match result with
        | Analysis.Equivalent _ -> "valid"
        | Analysis.Not_equivalent _ -> "counterexample?!"
        | Analysis.Bisimulation_failed w -> "bisim failed: " ^ w
        | Analysis.Equiv_unknown u -> unknown_str u
      in
      Fmt.pr "  k=%d passes (%2d blocks): %-8s %.2fs@." k
        (Blocks.nblocks p) verdict dt;
      Format.pp_print_flush Fmt.stdout ())
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Figure C: ablations of the encoding's design choices                 *)

let figure_c () =
  Fmt.pr "@.== Figure C: encoding ablations ==@.";
  let race name p ~field_sensitive ~prune =
    let result, dt =
      time (fun () -> Analysis.check_data_race ~field_sensitive ~prune p)
    in
    let verdict, replayed =
      match result with
      | Analysis.Race_free -> ("race-free", "")
      | Analysis.Race cx ->
        ( "race",
          Printf.sprintf " (replay-confirmed=%b)" (Analysis.replay_race p cx)
        )
      | Analysis.Race_unknown u -> (unknown_str u, "")
    in
    Fmt.pr "  %-44s %-10s %6.2fs%s@." name verdict dt replayed;
    Format.pp_print_flush Fmt.stdout ()
  in
  let equivalence name p p' map ~field_sensitive ~prune =
    let result, dt =
      time (fun () ->
          Analysis.check_equivalence ~field_sensitive ~prune p p' ~map)
    in
    let verdict =
      match result with
      | Analysis.Equivalent _ -> "valid"
      | Analysis.Not_equivalent cx ->
        Printf.sprintf "counterexample (real=%b)"
          (Analysis.replay_equivalence p p' cx)
      | Analysis.Bisimulation_failed _ -> "bisim failed"
      | Analysis.Equiv_unknown u -> unknown_str u
    in
    Fmt.pr "  %-44s %-26s %6.2fs@." name verdict dt;
    Format.pp_print_flush Fmt.stdout ()
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
  Fmt.pr " E5 (fusion), reachability pruning:@.";
  equivalence "  with pruning" css cssf map_css ~field_sensitive:true
    ~prune:true;
  equivalence "  without pruning" css cssf map_css ~field_sensitive:true
    ~prune:false;
  Fmt.pr " E5, dependence granularity:@.";
  equivalence "  node-granularity" css cssf map_css ~field_sensitive:false
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
  let env =
    ("x1", Mso.FO) :: ("x2", Mso.FO) :: Encode.label_env enc [ ns1 ]
  in
  let config_formula = Encode.configuration enc ns1 ~q:10 ~x:"x1" in
  let base = Mso.compile env config_formula in
  let sing = Mso.compile env (Mso.Sing "x2") in
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
(* --smoke: budget-capped verification subset for CI                    *)

let smoke_suite () =
  Fmt.pr "== Smoke suite: budget-capped verification subset ==@.";
  Fmt.pr "  (validated at level full; overhead = validation / query time)@.";
  let failures = ref 0 in
  let total_query = ref 0. and total_validation = ref 0. in
  let report id expect ~unknown_ok verdict (vr : Validate.report) =
    let dt = vr.Validate.query_time in
    total_query := !total_query +. vr.Validate.query_time;
    total_validation := !total_validation +. vr.Validate.validation_time;
    let overhead =
      if vr.Validate.query_time > 0. then
        Printf.sprintf "validation +%.0f%%"
          (100. *. vr.Validate.validation_time /. vr.Validate.query_time)
      else "validation -"
    in
    let overhead =
      if Validate.ok vr then overhead
      else begin
        incr failures;
        overhead ^ " SELF-VALIDATION FAILED"
      end
    in
    let is_unknown =
      String.length verdict >= 7 && String.sub verdict 0 7 = "unknown"
    in
    if verdict = expect then
      Fmt.pr "  [%s] %-15s %6.2fs  %-18s (ok)@." id verdict dt overhead
    else if unknown_ok && is_unknown then
      Fmt.pr "  [%s] %s %.2fs  %s (acceptable under smoke budget)@." id
        verdict dt overhead
    else begin
      incr failures;
      Fmt.pr "  [%s] %s %.2fs  %s (FAIL: expected %s)@." id verdict dt
        overhead expect
    end;
    Format.pp_print_flush Fmt.stdout ()
  in
  let equiv id ~budget ~unknown_ok p p' map expect =
    let result, vr =
      Validate.check_equivalence ~level:Validate.Full ~budget p p' ~map
    in
    let verdict =
      match result with
      | Analysis.Equivalent _ -> "valid"
      | Analysis.Not_equivalent _ -> "counterexample"
      | Analysis.Bisimulation_failed w -> "bisim failed: " ^ w
      | Analysis.Equiv_unknown u -> unknown_str u
    in
    report id expect ~unknown_ok verdict vr
  in
  let race id ~budget ~unknown_ok p expect =
    let result, vr =
      Validate.check_data_race ~level:Validate.Full ~budget p
    in
    let verdict =
      match result with
      | Analysis.Race_free -> "race-free"
      | Analysis.Race _ -> "race"
      | Analysis.Race_unknown u -> unknown_str u
    in
    report id expect ~unknown_ok verdict vr
  in
  (* fast queries must still reach their seed verdict; the two heavy ones
     (E5 CSS fusion, E6 cycletree fusion) may time out to Unknown, but a
     *wrong* definite verdict fails the suite either way *)
  let fast = Engine.budget ~timeout:60. () in
  let heavy = Engine.budget ~timeout:10. () in
  let seq = Programs.load Programs.size_counting_seq in
  equiv "E1" ~budget:fast ~unknown_ok:false seq
    (Programs.load Programs.size_counting_fused)
    map_fused "valid";
  equiv "E2" ~budget:fast ~unknown_ok:false seq
    (Programs.load Programs.size_counting_fused_invalid)
    map_fused "counterexample";
  race "E3" ~budget:fast ~unknown_ok:false
    (Programs.load Programs.size_counting)
    "race-free";
  equiv "E4" ~budget:fast ~unknown_ok:false
    (Programs.load Programs.tree_mutation_seq)
    (Programs.load Programs.tree_mutation_fused)
    map_mutation "valid";
  equiv "E5" ~budget:heavy ~unknown_ok:true
    (Programs.load Programs.css_minification_seq)
    (Programs.load Programs.css_minification_fused)
    map_css "valid";
  equiv "E6" ~budget:heavy ~unknown_ok:true
    (Programs.load Programs.cycletree_seq)
    (Programs.load Programs.cycletree_fused)
    map_cycle "valid";
  race "E7" ~budget:fast ~unknown_ok:false
    (Programs.load Programs.cycletree_par)
    "race";
  if !total_query > 0. then
    Fmt.pr "@.smoke: total validation overhead %.0f%% of query wall-clock \
            (%.2fs / %.2fs)@."
      (100. *. !total_validation /. !total_query)
      !total_validation !total_query;
  if !failures = 0 then Fmt.pr "smoke: all verdicts consistent@."
  else begin
    Fmt.pr "smoke: %d inconsistent verdict(s)@." !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel batch: serial vs multi-domain wall clock on the bundled
   programs' race queries, with a verdict-change cross-check.            *)

let verdict_class = function
  | Ok Analysis.Race_free -> "race-free"
  | Ok (Analysis.Race _) -> "race"
  | Ok (Analysis.Race_unknown _) -> "unknown"
  | Error _ -> "cancelled"

let parallel_suite () =
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "@.== Parallel batch: serial vs -j %d (%d core%s available) ==@."
    jobs cores (if cores = 1 then "" else "s");
  let progs =
    List.map (fun (n, s) -> (n, Programs.load s)) Programs.all_named
  in
  let tasks =
    List.map (fun (_, info) budget -> Analysis.check_data_race ~budget info)
      progs
  in
  let serial, t_serial = time (fun () -> Pool.run_batch ~jobs:1 tasks) in
  let par, t_par = time (fun () -> Pool.run_batch ~jobs tasks) in
  let changes =
    List.fold_left2
      (fun n a b -> if verdict_class a = verdict_class b then n else n + 1)
      0 serial par
  in
  List.iter2
    (fun (name, _) r -> Fmt.pr "  %-28s %s@." name (verdict_class r))
    progs serial;
  let speedup = if t_par > 0. then t_serial /. t_par else 0. in
  Fmt.pr "  %-28s serial %.2fs   -j %d %.2fs   speedup %.2fx   verdict \
          changes %d@."
    (Printf.sprintf "aggregate (%d queries)" (List.length progs))
    t_serial jobs t_par speedup changes;
  if cores = 1 then
    Fmt.pr "  (single-core host: domains timeshare one CPU, so ~1x is the \
            physical ceiling here)@.";
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"jobs\": %d,\n  \"tasks\": %d,\n  \
     \"serial_wall_s\": %.3f,\n  \"parallel_wall_s\": %.3f,\n  \
     \"speedup\": %.3f,\n  \"verdict_changes\": %d\n}\n"
    cores jobs (List.length progs) t_serial t_par speedup changes;
  close_out oc;
  Fmt.pr "  wrote BENCH_parallel.json@.";
  if changes > 0 then begin
    Fmt.pr "parallel: %d verdict change(s) between serial and -j %d@."
      changes jobs;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve mode: daemon-core throughput cold vs warm reply cache, and the
   latency a query pays when a fault crashes its worker (restart with
   backoff, one retry, typed degradation).                               *)

let serve_suite () =
  Fmt.pr "@.== Serve mode: reply cache and supervision costs ==@.";
  let progs =
    [ "size_counting"; "size_counting_seq"; "racy_writers";
      "tree_mutation_seq" ]
    |> List.map (fun n -> (n, List.assoc n Programs.all_named))
  in
  let n = List.length progs in
  let core = Serve.Core.create ~workers:2 () in
  let options = { Serve.default_options with Serve.client = "bench" } in
  let solve_all () =
    List.map
      (fun (_, source) -> Serve.Core.solve core ~options ~source)
      progs
  in
  let cold, t_cold = time solve_all in
  let warm, t_warm = time solve_all in
  let changes =
    List.fold_left2
      (fun acc a b -> if a = b then acc else acc + 1)
      0 cold warm
  in
  (* one sabotaged query: the worker that picks it up crashes on every
     attempt, so this times crash detection + backoff + restart + retry
     + the typed Server_unknown reply *)
  let fault_options =
    { options with Serve.inject = Some ("pool.submit", 1, 1) }
  in
  let degraded, t_fault =
    time (fun () ->
        Serve.Core.solve core ~options:fault_options
          ~source:(snd (List.hd progs)))
  in
  let degraded_ok =
    match degraded with Serve.Server_unknown _ -> true | _ -> false
  in
  let cold_qps = if t_cold > 0. then float n /. t_cold else 0. in
  let warm_qps = if t_warm > 0. then float n /. t_warm else 0. in
  Fmt.pr "  %-28s %d queries in %.2fs (%.1f qps)@." "cold (cache empty)" n
    t_cold cold_qps;
  Fmt.pr "  %-28s %d queries in %.2fs (%.1f qps)@." "warm (reply cache)" n
    t_warm warm_qps;
  Fmt.pr "  %-28s %.3fs (typed degradation: %b)@."
    "crash+restart+retry latency" t_fault degraded_ok;
  let cut = Serve.Core.drain ~grace:5. core in
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n  \"queries\": %d,\n  \"cold_wall_s\": %.3f,\n  \"cold_qps\": %.1f,\n  \
     \"warm_wall_s\": %.3f,\n  \"warm_qps\": %.1f,\n  \
     \"restart_under_fault_s\": %.3f,\n  \"degraded_typed\": %b,\n  \
     \"verdict_changes\": %d,\n  \"drain_cut\": %d\n}\n"
    n t_cold cold_qps t_warm warm_qps t_fault degraded_ok changes cut;
  close_out oc;
  Fmt.pr "  wrote BENCH_serve.json@.";
  if changes > 0 || not degraded_ok then begin
    Fmt.pr "serve: %d cold/warm reply change(s); typed degradation %b@."
      changes degraded_ok;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* robustness: durability and retry costs                              *)
(* ------------------------------------------------------------------ *)

let robustness_suite () =
  Fmt.pr "@.== Robustness: snapshot durability and retry costs ==@.";
  let progs =
    [ "size_counting"; "size_counting_seq"; "racy_writers";
      "tree_mutation_seq" ]
    |> List.map (fun n -> (n, List.assoc n Programs.all_named))
  in
  let n = List.length progs in
  let snap = "BENCH_robustness.snap" in
  (try Sys.remove snap with Sys_error _ -> ());
  let options = { Serve.default_options with Serve.client = "bench" } in
  let solve_all core =
    List.map
      (fun (_, source) -> Serve.Core.solve core ~options ~source)
      progs
  in
  (* warm a core, then time the durable save its drain performs *)
  let core = Serve.Core.create ~workers:2 ~snapshot:snap () in
  let cold = solve_all core in
  let (_ : int), t_save = time (fun () -> Serve.Core.drain ~grace:5. core) in
  (* snapshot load latency, alone *)
  let (entries, status), t_load =
    time (fun () -> Serve_snapshot.load ~path:snap)
  in
  let clean_load = status = Serve_snapshot.Clean (List.length entries) in
  (* recovery after kill -9: atomic saves mean the worst crash leaves
     the previous complete snapshot, plus possibly a torn temp file the
     next save sweeps; time a full warm restart from that state — core
     construction (load included) through re-answering every query *)
  let tmp_debris = snap ^ ".tmp.99999" in
  Out_channel.with_open_bin tmp_debris (fun oc ->
      Out_channel.output_string oc "torn");
  let metric name text =
    (* metrics_text is column-aligned "name   value" lines *)
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match
             String.split_on_char ' ' line
             |> List.filter (fun tok -> tok <> "")
           with
           | [ n'; v ] when n' = name -> float_of_string_opt v
           | _ -> None)
    |> Option.value ~default:0.
  in
  let (warm, hit_rate), t_recover =
    time (fun () ->
        let core = Serve.Core.create ~workers:2 ~snapshot:snap () in
        let warm = solve_all core in
        let m = Serve.Core.metrics_text core in
        let hits = metric "cache_hits" m in
        ignore (Serve.Core.drain ~grace:5. core);
        (warm, hits /. float_of_int n))
  in
  let changes =
    List.fold_left2
      (fun acc a b -> if a = b then acc else acc + 1)
      0 cold warm
  in
  (* retry success rate: a live listener, a torn-read fault re-armed on
     every attempt (period 3: first frame read survives, a later one
     tears), and the client's bounded backoff riding over it *)
  let socket = "BENCH_robustness.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let retry_trials = 20 in
  let retried = ref 0 in
  let succeeded = ref 0 in
  let t_retry =
    match Serve_server.start ~socket ~workers:2 ~grace:5. () with
    | Error msg ->
      Fmt.pr "  retry bench skipped: %s@." msg;
      0.
    | Ok srv ->
      let source = snd (List.hd progs) in
      let opts = Serve.options_to_assoc options in
      let (), t =
        time (fun () ->
            for k = 1 to retry_trials do
              let arm attempt =
                Faults.arm ~period:5 ~site:"wire.read" ~seed:(k + attempt) ()
              in
              match
                Serve_client.request_with_retry ~arm
                  ~retry:
                    { Serve_client.default_retry with
                      retries = 4; base = 0.01; seed = k }
                  ~socket ~wait:5.
                  (Serve_wire.Solve { opts; source })
              with
              | Ok (reply, stats) ->
                if stats.Serve_client.attempts > 1 then incr retried;
                if reply.Serve_client.status = "REPLY" then incr succeeded
              | Error _ -> ()
            done)
      in
      ignore (Serve_server.stop srv);
      t
  in
  let retry_rate = float_of_int !succeeded /. float_of_int retry_trials in
  Fmt.pr "  %-28s %.3fs (drain incl. durable save)@." "snapshot save" t_save;
  Fmt.pr "  %-28s %.4fs (%d entries, clean: %b)@." "snapshot load" t_load
    (List.length entries) clean_load;
  Fmt.pr "  %-28s %.3fs (cache hit rate %.2f)@." "recovery after kill -9"
    t_recover hit_rate;
  Fmt.pr "  %-28s %d/%d ok (%d retried) in %.2fs@." "retries under wire.read"
    !succeeded retry_trials !retried t_retry;
  let oc = open_out "BENCH_robustness.json" in
  Printf.fprintf oc
    "{\n  \"queries\": %d,\n  \"snapshot_save_s\": %.4f,\n  \
     \"snapshot_load_s\": %.4f,\n  \"snapshot_entries\": %d,\n  \
     \"snapshot_clean\": %b,\n  \"recovery_after_kill9_s\": %.4f,\n  \
     \"warm_restart_hit_rate\": %.2f,\n  \"verdict_changes\": %d,\n  \
     \"retry_trials\": %d,\n  \"retry_successes\": %d,\n  \
     \"retry_success_rate\": %.2f,\n  \"retry_wall_s\": %.3f\n}\n"
    n t_save t_load (List.length entries) clean_load t_recover hit_rate
    changes retry_trials !succeeded retry_rate t_retry;
  close_out oc;
  Fmt.pr "  wrote BENCH_robustness.json@.";
  (try Sys.remove snap with Sys_error _ -> ());
  (try Sys.remove tmp_debris with Sys_error _ -> ());
  (* the retry gate is deliberately loose: the injection is harsh (a
     ~1/5-density torn read re-armed on every attempt), so exhausted
     retries are expected — what must hold is that the retry path works
     at all and recovered at least once *)
  if changes > 0 || not clean_load || retry_rate < 0.5 || !retried = 0
  then begin
    Fmt.pr
      "robustness: %d verdict change(s), clean load %b, retry rate %.2f \
       (%d retried)@."
      changes clean_load retry_rate !retried;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Generated corpus: scenario-factory throughput and ground-truth
   agreement on a fixed-seed corpus through the batch + serve planes.   *)

let corpus_suite () =
  let seed = 42 and count = 12 in
  Fmt.pr "@.== Generated corpus: factory throughput + ground truth ==@.";
  let scenarios, t_gen = time (fun () -> Factory.sample ~seed ~count) in
  let cfg = { Corpus.default_config with jobs; serve_sample = 4 } in
  let s, t_solve = time (fun () -> Corpus.run_campaign cfg scenarios) in
  let disagree = List.length s.Corpus.disagreements in
  let rate t n = if t > 0. then float_of_int n /. t else 0. in
  Fmt.pr "  generated %d scenarios in %.2fs (%.0f/s), %d queries in %.2fs \
          (%.1f/s)@."
    count t_gen (rate t_gen count) s.Corpus.queries t_solve
    (rate t_solve s.Corpus.queries);
  Fmt.pr "  %a@." Corpus.pp_summary s;
  let oc = open_out "BENCH_corpus.json" in
  Printf.fprintf oc
    "{\n  \"seed\": %d,\n  \"generated\": %d,\n  \"gen_wall_s\": %.3f,\n  \
     \"gen_rate_per_s\": %.1f,\n  \"queries\": %d,\n  \"solve_wall_s\": \
     %.3f,\n  \"solve_rate_per_s\": %.2f,\n  \"agree\": %d,\n  \
     \"unknown\": %d,\n  \"disagreements\": %d\n}\n"
    seed count t_gen (rate t_gen count) s.Corpus.queries t_solve
    (rate t_solve s.Corpus.queries)
    s.Corpus.agree s.Corpus.unknown disagree;
  close_out oc;
  Fmt.pr "  wrote BENCH_corpus.json@.";
  if disagree > 0 then begin
    Fmt.pr "corpus: %d ground-truth disagreement(s)@." disagree;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  if smoke then begin
    Fmt.pr "Retreet benchmark harness — smoke mode@.@.";
    smoke_suite ();
    parallel_suite ();
    serve_suite ();
    corpus_suite ();
    robustness_suite ();
    exit 0
  end;
  Fmt.pr "Retreet benchmark harness (paper: PPoPP 2021 evaluation)@.@.";
  let t0 = Unix.gettimeofday () in
  table1 ();
  table2 ();
  figure_a ();
  figure_c ();
  if not skip_micro then figure_b ();
  Fmt.pr "@.== Summary (paper vs measured) ==@.";
  Fmt.pr "  %-4s %-18s %-34s %-16s %-10s %-16s %-10s@." "id" "study" "query"
    "paper" "paper-t" "measured" "time";
  List.iter
    (fun r ->
      Fmt.pr "  %-4s %-18s %-34s %-16s %-10s %-16s %8.2fs %s@." r.id r.study
        r.query r.paper_result r.paper_time r.our_result r.our_time
        r.validated)
    (List.rev !rows);
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
