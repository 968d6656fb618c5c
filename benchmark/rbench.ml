(* The Retreet benchmark: time to verdict on the paper's queries, cold
   and warm, on a generated corpus and on the serve path, and a traced run that
   attributes each workload's time to the repository's layers.

   Usage: rbench.exe --workload W --seed N --seconds S --trace 0|1
                     [--rev REV]

   Every layer is measured from outside: the harness times calls into
   public functions and reads diagnostics the libraries already expose
   (Treeauto.pp_op_stats, Treeauto.set_observer, Engine.metered,
   Validate reports, Serve.Core.metrics_text, Solver_ctx.created).  With
   --trace 0 no hook is installed and the last stdout line carries the
   end-to-end metrics; with --trace 1 it carries the per-layer metrics,
   and a "meters" line before it lists the deterministic per-query
   meters.  README.md defines every metric. *)

(* Seconds on the monotonic clock, to the nanosecond: hits take tens of
   microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it.  A sample
   of ten or fewer has no such percentile and reports its maximum. *)
let tail xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "tail of no samples"
  else if n <= 10 then a.(n - 1)
  else a.(n - 11)

let minimum = function
  | [] -> invalid_arg "minimum of no samples"
  | x :: xs -> List.fold_left Float.min x xs

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* A latency sample; one that read 0 would zero the geometric mean. *)
let sample dt = Float.max dt 1e-9

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The host's speed drifts.  On the 2-core VM this benchmark was written
   on, the same query ran up to 1.8 times slower for tens of seconds at
   a time, and for minutes now and then, with no steal time reported
   and CPU time equal to wall time.  The slowdown is one-sided (nothing
   runs faster than the machine allows) and hits allocation-heavy OCaml
   code hardest: in the slow spells a kernel filling a hash table and a
   map slowed by 60%, tight arithmetic and random reads over 64 MB by
   10%.  A median over a run moves with the share of the run the slow
   spells cover; the fastest of several runs of a short operation moves
   less.  So every end-to-end time is built from short operations, each
   the fastest of its runs.  A slow state that lasts the whole run
   leaves no fast run; to follow it, that kernel is timed in a child
   process between the workload's operations, and end-to-end times are
   scaled by [reference_nominal / fastest kernel time].  In its own
   process the kernel shares no heap with the benchmark, and it calls
   no repository code, so no change to the program moves it. *)
module Int_map = Map.Make (Int)

let reference_kernel () =
  let h = Hashtbl.create 16 and m = ref Int_map.empty in
  for i = 1 to 100_000 do
    let k = (i * 7919) land 0xFFFFFF in
    Hashtbl.replace h k [ i; i ];
    m := Int_map.add k (string_of_int i) !m
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h, Int_map.cardinal !m))

(* The kernel's fastest time in a run on that VM, so that a scaled time
   reads as the time there. *)
let reference_nominal = 0.175

let reference_s = ref []

(* Times the kernel in [cores] child processes of this executable at
   once, one per core the workload keeps busy; each runs it under
   [--reference] and prints its time. *)
let speed_sample ?(cores = 1) () =
  let exe = Sys.executable_name in
  List.init cores (fun _ -> Unix.open_process_args_in exe [| exe; "--reference" |])
  |> List.iter (fun ic ->
         let line = In_channel.input_line ic in
         match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
         | Unix.WEXITED 0, Some t ->
           Printf.eprintf "reference %.4f\n%!" t;
           reference_s := t :: !reference_s
         | _ -> failwith "the reference kernel failed")

(* Multiplies a time measured in this run into a time at the nominal
   speed. *)
let speed_factor () = reference_nominal /. minimum !reference_s

(* A metric measured in this run, at the nominal speed. *)
let scaled k (name, v, unit) =
  match unit with
  | "s" | "ms" -> (name, v *. k, unit)
  | "1/s" -> (name, v /. k, unit)
  | _ -> (name, v, unit)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rev : string option;
}

let workloads = [ "paper-cold"; "paper-warm"; "corpus"; "serve-repeat" ]

let usage msg =
  Printf.eprintf
    "rbench: %s\n\
     usage: rbench.exe --workload {%s} --seed N --seconds S --trace 0|1 \
     [--rev REV]\n"
    msg
    (String.concat "|" workloads);
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | [ flag ] -> usage ("missing value for " ^ flag)
    | flag :: v :: rest -> go ((flag, v) :: acc) rest
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--rev" ])
      then usage ("unknown flag " ^ k))
    kv;
  let req k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing " ^ k) in
  let int k =
    match int_of_string_opt (req k) with Some n -> n | None -> usage (k ^ " takes an integer")
  in
  let workload = req "--workload" in
  if not (List.mem workload workloads) then usage ("unknown workload " ^ workload);
  let seconds = int "--seconds" in
  if seconds < 1 then usage "--seconds must be at least 1";
  let trace =
    match req "--trace" with "0" -> false | "1" -> true | _ -> usage "--trace takes 0 or 1"
  in
  { workload; seed = int "--seed"; seconds = float_of_int seconds; trace;
    rev = List.assoc_opt "--rev" kv }

(* ------------------------------------------------------------------ *)
(* Operation tally: attempted, decided, failed                         *)

(* How many samples stand behind the reported times. *)
let samples : (string * int) list ref = ref []

(* Each paper query's fastest time to verdict, for the stamp line. *)
let query_s : (string * float) list ref = ref []

let tally_lock = Mutex.create ()
let attempted = ref 0
let decided = ref 0
let failures = ref []

(* Records one operation.  [decided] is false for an Unknown verdict;
   [error] names what went wrong when the operation failed. *)
let record ~decided:d error =
  Mutex.protect tally_lock (fun () ->
      incr attempted;
      if d then incr decided;
      Option.iter (fun e -> failures := e :: !failures) error)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

type verdict = Holds | Refuted | Unknown

type spec =
  | Race of Blocks.t
  | Equiv of Blocks.t * Blocks.t * Analysis.block_map

type query = {
  id : string;
  spec : spec;
  expect : verdict;  (** the paper's answer, or the factory's truth *)
  budget : Engine.budget;
}

let verdict_name = function Holds -> "proof" | Refuted -> "counterexample" | Unknown -> "unknown"

let race_verdict = function
  | Analysis.Race_free -> Holds
  | Analysis.Race _ -> Refuted
  | Analysis.Race_unknown _ -> Unknown

let equiv_verdict = function
  | Analysis.Equivalent _ -> Holds
  | Analysis.Not_equivalent _ | Analysis.Bisimulation_failed _ -> Refuted
  | Analysis.Equiv_unknown _ -> Unknown

(* A counterexample counts only if the witness replay ran and passed. *)
let replayed (report : Validate.report) =
  List.exists
    (fun (c : Validate.check) ->
      (c.name = "race.replay" || c.name = "equiv.replay") && c.status = Validate.Passed)
    report.Validate.checks

type validated = { v_query_s : float; v_validation_s : float }

(* One query at the CLI default validation level (Witness), as
   [retreet race|equiv], a batch task and a serve miss run it.  Records
   the operation in the tally. *)
let validated q =
  let verdict, report =
    match q.spec with
    | Race p ->
      let r, report = Validate.check_data_race ~level:Validate.Witness ~budget:q.budget p in
      (race_verdict r, report)
    | Equiv (p, p', map) ->
      let r, report =
        Validate.check_equivalence ~level:Validate.Witness ~budget:q.budget p p' ~map
      in
      (equiv_verdict r, report)
  in
  let error =
    if not (Validate.ok report) then Some (q.id ^ ": failed self-validation")
    else if verdict <> q.expect then
      Some (Printf.sprintf "%s: %s, expected %s" q.id (verdict_name verdict) (verdict_name q.expect))
    else if verdict = Refuted && not (replayed report) then
      Some (q.id ^ ": counterexample did not replay")
    else None
  in
  record ~decided:(verdict <> Unknown) error;
  { v_query_s = report.Validate.query_time;
    v_validation_s = report.Validate.validation_time }

(* ------------------------------------------------------------------ *)
(* Traced queries                                                      *)

let op_names = [ "union"; "inter"; "diff"; "minimize"; "project" ]

type layers = {
  verdict_s : float;
  ops : (string * (float * int)) list;  (** the query's share of the op statistics *)
  pairs : int;
  pair_s_max : float;
  fresh_nodes : int;
  steps : int;
  constructions : int;
  peak_states : int;
}

let op_stats () =
  Format.asprintf "%a" Treeauto.pp_op_stats ()
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         try Some (Scanf.sscanf line "%s@: %fs over %d calls" (fun k t n -> (k, (t, n))))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* The statistics accumulate in the solver context, and pp_op_stats
   prints each total to 10 ms.  A query's share is the difference of
   the reads before and after it, so each per-query time is off by at
   most 10 ms; the sum over queries that share a context telescopes to
   two reads. *)
let op_delta before after =
  List.map
    (fun (k, (t, n)) ->
      let t0, n0 = Option.value (List.assoc_opt k before) ~default:(0., 0) in
      (k, (t -. t0, n - n0)))
    after

let op_s l name = try fst (List.assoc name l.ops) with Not_found -> 0.
let op_calls l name = try snd (List.assoc name l.ops) with Not_found -> 0

(* Query time not spent inside an automaton operation: formula
   construction, compilation of atoms, the analysis's own bookkeeping. *)
let formula_s l = l.verdict_s -. sum (List.map (fun (_, (t, _)) -> t) l.ops)

(* The query without validation, with every outside hook installed: the
   construction observer, node and step metering, per-pair callbacks
   and the per-context operation statistics.  Runs on the current
   solver context. *)
let traced q =
  let ops0 = op_stats () in
  let constructions = ref 0 and peak = ref 0 in
  Treeauto.set_observer (fun _ a ->
      incr constructions;
      peak := max !peak (Treeauto.size a));
  let pairs = ref 0 and last = ref 0. and gap = ref 0. in
  let on_pair _ _ =
    let t = now () in
    if !pairs > 0 then gap := Float.max !gap (t -. !last);
    last := t;
    incr pairs
  in
  let t0 = now () in
  let result, usage =
    Engine.metered (fun () ->
        match q.spec with
        | Race p -> race_verdict (Analysis.check_data_race ~on_pair ~budget:q.budget p)
        | Equiv (p, p', map) ->
          equiv_verdict (Analysis.check_equivalence ~on_pair ~budget:q.budget p p' ~map))
  in
  let t1 = now () in
  Treeauto.clear_observer ();
  if !pairs > 0 then gap := Float.max !gap (t1 -. !last);
  let verdict = match result with Ok v -> v | Error _ -> Unknown in
  if verdict <> q.expect then
    Mutex.protect tally_lock (fun () ->
        failures := Printf.sprintf "%s (traced): %s" q.id (verdict_name verdict) :: !failures);
  {
    verdict_s = t1 -. t0;
    ops = op_delta ops0 (op_stats ());
    pairs = !pairs;
    pair_s_max = !gap;
    fresh_nodes = usage.Engine.nodes;
    steps = usage.Engine.steps;
    constructions = !constructions;
    peak_states = !peak;
  }

(* The same call as [traced] with no hook: the base of the tracing
   overhead. *)
let plain q =
  match q.spec with
  | Race p -> race_verdict (Analysis.check_data_race ~budget:q.budget p)
  | Equiv (p, p', map) -> equiv_verdict (Analysis.check_equivalence ~budget:q.budget p p' ~map)

(* ------------------------------------------------------------------ *)
(* Front-end layers, timed on a workload's sources                     *)

type front = { load_s : float; symexec_s : float; make_s : float }

(* Parse + well-formedness (Programs.load), symbolic execution and the
   encoder's set-up (Encode.make, which runs Symexec again), each timed
   over every source. *)
let front_end sources =
  List.fold_left
    (fun acc src ->
      let info, load_s = time (fun () -> Programs.load src) in
      let _, symexec_s = time (fun () -> Symexec.analyze info) in
      let _, make_s = time (fun () -> Solver_ctx.with_fresh (fun () -> Encode.make info)) in
      { load_s = acc.load_s +. load_s; symexec_s = acc.symexec_s +. symexec_s;
        make_s = acc.make_s +. make_s })
    { load_s = 0.; symexec_s = 0.; make_s = 0. }
    sources

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  wall : float;  (** seconds from the first request to the last verdict *)
  queries : int;  (** solver queries answered *)
  latencies : float list;  (** seconds per request, as its caller saw it *)
}

(* Runs [pass] once, then again while the next pass, projected from the
   longest so far, still ends within [seconds]. *)
let repeat ~seconds pass =
  let t0 = now () in
  let rec go acc longest =
    let r, dt = time pass in
    let acc = r :: acc and longest = Float.max longest dt in
    if now () -. t0 +. longest <= seconds then go acc longest else List.rev acc
  in
  go [] 0.

(* Runs every operation once, even past [seconds]; then cycles over
   them, skipping one whose last run would end past [seconds], until
   none fits.  [before id] runs, untimed, before each run.  Each
   run's time goes to standard error.  Returns each operation's run
   times, in the order of [ops]. *)
let cycle_runs ~seconds ~before ops =
  let t0 = now () in
  let runs = Hashtbl.create 64 in
  let run (id, f) =
    before id;
    let (), dt = time f in
    Printf.eprintf "sample %s %.4f\n%!" id dt;
    Hashtbl.replace runs id (sample dt :: Option.value (Hashtbl.find_opt runs id) ~default:[]);
    dt
  in
  let rec go last =
    let ran = ref false in
    let last =
      List.map
        (fun (op, dt) ->
          if now () -. t0 +. dt <= seconds then begin
            ran := true;
            (op, run op)
          end
          else (op, dt))
        last
    in
    if !ran then go last
  in
  go (List.map (fun op -> (op, run op)) ops);
  List.map (fun (id, _) -> Hashtbl.find runs id) ops

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The pass with the shortest wall time. *)
let fastest = function
  | [] -> invalid_arg "no passes"
  | p :: ps -> List.fold_left (fun a (b : pass) -> if b.wall < a.wall then b else a) p ps

(* The metrics of one pass, the run's fastest. *)
let end_to_end ~setup p =
  [
    ("setup_s", median setup, "s");
    ("verdict_s_total", p.wall, "s");
    ("verdict_s_geomean", geomean p.latencies, "s");
    ("queries_per_s", float_of_int p.queries /. p.wall, "1/s");
    ( "decided_share",
      float_of_int !decided /. float_of_int (max 1 !attempted),
      "share" );
  ]

(* Request latencies, for the serve path only: a paper pass has six
   requests and a corpus pass one. *)
let latency p =
  [ ("latency_p50_ms", 1000. *. median p.latencies, "ms");
    ("latency_tail_ms", 1000. *. tail p.latencies, "ms") ]

(* ------------------------------------------------------------------ *)
(* Per-layer report                                                    *)

let paper_ids = [ "E1"; "E2"; "E3"; "E4"; "E5"; "E7" ]

type report = {
  queries : (string * layers) list;  (** every traced query, by id *)
  front : front;
  ctx_created : int;
  validation_s : float;
  batch_s : float;
  task_s : float;
  gen_s : float;
  serve : (string * float) list;  (** serve.* rows *)
  overhead_pct : float;
}

let empty_report =
  {
    queries = []; front = { load_s = 0.; symexec_s = 0.; make_s = 0. };
    ctx_created = 0; validation_s = 0.; batch_s = 0.; task_s = 0.; gen_s = 0.;
    serve = []; overhead_pct = 0.;
  }

let per_layer t =
  let all = List.map snd t.queries in
  let total f = List.fold_left (fun acc l -> acc +. f l) 0. all in
  let itotal f = List.fold_left (fun acc l -> acc + f l) 0 all in
  let imax f = List.fold_left (fun acc l -> max acc (f l)) 0 all in
  let ops =
    List.concat_map
      (fun op ->
        [ ("treeauto." ^ op ^ "_s", total (fun l -> op_s l op), "s");
          ("treeauto." ^ op ^ "_calls", float_of_int (itotal (fun l -> op_calls l op)), "count") ])
      op_names
  in
  let serve k = Option.value (List.assoc_opt k t.serve) ~default:0. in
  let rows =
    ops
    @ [
        ("treeauto.constructions", float_of_int (itotal (fun l -> l.constructions)), "count");
        ("treeauto.peak_states", float_of_int (imax (fun l -> l.peak_states)), "count");
        ("bdd.fresh_nodes", float_of_int (itotal (fun l -> l.fresh_nodes)), "count");
        ("engine.steps", float_of_int (itotal (fun l -> l.steps)), "count");
        ("analysis.formula_s", total formula_s, "s");
        ("analysis.pairs", float_of_int (itotal (fun l -> l.pairs)), "count");
        ("analysis.pair_s_max", List.fold_left (fun acc l -> Float.max acc l.pair_s_max) 0. all, "s");
        ("lang.load_s", t.front.load_s, "s");
        ("lang.symexec_s", t.front.symexec_s, "s");
        ("encode.make_s", t.front.make_s, "s");
        ("ctx.created", float_of_int t.ctx_created, "count");
        ("validate.validation_s", t.validation_s, "s");
        ("pool.batch_s", t.batch_s, "s");
        ("pool.task_s", t.task_s, "s");
        ("factory.gen_s", t.gen_s, "s");
        ("serve.cache_hits", serve "cache_hits", "count");
        ("serve.cache_misses", serve "cache_misses", "count");
        ("serve.overloaded", serve "overloaded", "count");
        ("serve.hit_ms", serve "hit_ms", "ms");
        ("serve.miss_ms", serve "miss_ms", "ms");
        ("serve.solve_p50_ms", serve "solve_p50_ms", "ms");
        ("gc.peak_heap_mb", peak_heap_mb (), "MB");
        ("trace.overhead_pct", t.overhead_pct, "%");
      ]
  in
  let query id =
    let l = List.assoc_opt id t.queries in
    let f g = match l with Some l -> g l | None -> 0. in
    let i g = f (fun l -> float_of_int (g l)) in
    [
      (id ^ ".verdict_s", f (fun l -> l.verdict_s), "s");
      (id ^ ".formula_s", f formula_s, "s");
    ]
    @ List.map (fun op -> (id ^ "." ^ op ^ "_s", f (fun l -> op_s l op), "s")) op_names
    @ [
        (id ^ ".pairs", i (fun l -> l.pairs), "count");
        (id ^ ".fresh_nodes", i (fun l -> l.fresh_nodes), "count");
        (id ^ ".steps", i (fun l -> l.steps), "count");
        (id ^ ".constructions", i (fun l -> l.constructions), "count");
        (id ^ ".peak_states", i (fun l -> l.peak_states), "count");
      ]
  in
  rows @ List.concat_map query paper_ids

(* The deterministic meters: per traced query, and the counts that
   depend only on the inputs.  They repeat exactly across runs of the
   same code and seed. *)
let meters_line t =
  let one (id, l) =
    Printf.sprintf
      "%S: {\"fresh_nodes\": %d, \"steps\": %d, \"constructions\": %d, \"peak_states\": %d}"
      id l.fresh_nodes l.steps l.constructions l.peak_states
  in
  let count (k, v) = Printf.sprintf "%S: %.0f" k v in
  let counts =
    ("ctx.created", float_of_int t.ctx_created)
    :: List.filter_map
         (fun k -> Option.map (fun v -> ("serve." ^ k, v)) (List.assoc_opt k t.serve))
         [ "cache_hits"; "cache_misses"; "overloaded" ]
  in
  "meters {" ^ String.concat ", " (List.map one t.queries @ List.map count counts) ^ "}"

(* ------------------------------------------------------------------ *)
(* paper-cold / paper-warm: Table 1 without E6                          *)

let map_fused =
  [ ("s0", "fnil"); ("s4", "fnil"); ("s3", "fret"); ("s7", "fret"); ("s10", "s10") ]

let map_mutation =
  [ ("wnil", "wnil"); ("inil", "wnil"); ("wset", "wset"); ("ileaf", "ileaf");
    ("istep", "istep"); ("mret", "mret") ]

let map_css =
  [ ("cvnil", "cvnil"); ("mfnil", "cvnil"); ("rinil", "cvnil"); ("cvset", "cvset");
    ("cvskip", "cvskip"); ("mfset", "mfset"); ("mfskip", "mfskip"); ("riset", "riset");
    ("riskip", "riskip"); ("mret", "mret") ]

let paper_sources =
  Programs.
    [ size_counting_seq; size_counting_fused; size_counting_fused_invalid; size_counting;
      tree_mutation_seq; tree_mutation_fused; css_minification_seq; css_minification_fused;
      cycletree_par ]

(* E6 (cycletree fusion) is left out: it needs about 480 s. *)
let paper_queries () =
  let load = Programs.load and budget = Engine.unlimited in
  let seq = load Programs.size_counting_seq in
  [
    { id = "E1"; expect = Holds; budget;
      spec = Equiv (seq, load Programs.size_counting_fused, map_fused) };
    { id = "E2"; expect = Refuted; budget;
      spec = Equiv (seq, load Programs.size_counting_fused_invalid, map_fused) };
    { id = "E3"; expect = Holds; budget; spec = Race (load Programs.size_counting) };
    { id = "E4"; expect = Holds; budget;
      spec =
        Equiv (load Programs.tree_mutation_seq, load Programs.tree_mutation_fused, map_mutation) };
    { id = "E5"; expect = Holds; budget;
      spec =
        Equiv (load Programs.css_minification_seq, load Programs.css_minification_fused, map_css) };
    { id = "E7"; expect = Refuted; budget; spec = Race (load Programs.cycletree_par) };
  ]

(* One pass over the six queries; [in_ctx] supplies the solver context
   each query runs on. *)
let paper_pass ~in_ctx queries () = List.map (fun q -> in_ctx (fun () -> validated q)) queries

(* Cycles over the queries for [seconds] (see [cycle_runs]); the pass
   reported is made of each query's fastest time to verdict.  Before
   each run a speed sample is taken, and the set-up, parsing and
   checking the programs, is timed ten more times into [loads], so that
   its samples span the run.  With [compact], each run starts from a
   compacted heap, so that it does not pay for collecting the contexts
   of the queries before it. *)
let paper_measure ~seconds ~compact ~in_ctx ~loads queries =
  let before _ =
    speed_sample ();
    if compact then Gc.compact ();
    for _ = 1 to 10 do
      loads := snd (time paper_queries) :: !loads
    done
  in
  let runs =
    cycle_runs ~seconds ~before
      (List.map (fun q -> (q.id, fun () -> ignore (in_ctx (fun () -> validated q)))) queries)
  in
  samples := List.map2 (fun q r -> (q.id, List.length r)) queries runs;
  let best = List.map minimum runs in
  query_s := List.map2 (fun q m -> (q.id, m)) queries best;
  { wall = sum best; queries = List.length queries; latencies = best }

let paper args ~warm =
  (* set-up: parse and check the programs (fifty times here, more during
     the run; median); warm adds one priming pass on the shared
     context *)
  let first = List.init 50 (fun _ -> time paper_queries) in
  let queries = fst (List.hd first) in
  let loads = ref (List.map snd first) in
  let ctx = Solver_ctx.create () in
  let in_ctx f = if warm then Solver_ctx.with_ctx ctx f else Solver_ctx.with_fresh f in
  let prime_s = if warm then snd (time (paper_pass ~in_ctx queries)) else 0. in
  if not args.trace then begin
    let pass =
      paper_measure ~seconds:args.seconds ~compact:(not warm) ~in_ctx ~loads queries
    in
    `End_to_end (end_to_end ~setup:[ median !loads +. prime_s ] pass)
  end
  else begin
    let vs = paper_pass ~in_ctx queries () in
    let created0 = Solver_ctx.created () in
    let rows = List.map (fun q -> (q.id, in_ctx (fun () -> traced q))) queries in
    let ctx_created = Solver_ctx.created () - created0 in
    let query_s = sum (List.map (fun v -> v.v_query_s) vs) in
    let traced_s = sum (List.map (fun (_, l) -> l.verdict_s) rows) in
    `Per_layer
      {
        empty_report with
        queries = rows;
        front = front_end paper_sources;
        ctx_created;
        validation_s = sum (List.map (fun v -> v.v_validation_s) vs);
        overhead_pct = 100. *. (traced_s /. query_s -. 1.);
      }
  end

(* ------------------------------------------------------------------ *)
(* corpus: a factory sample's queries on the campaign's pool          *)

(* A seeded draw with a fixed mix.  From the factory's scenario stream
   for [seed], take the first [candidates] scenarios of every (kind,
   family) class ([distinct] programs only, if asked), and keep
   [per_class] of them at evenly spaced quantiles of size over the
   smallest [span] share.  Class and size set the query count and most
   of the cost, so fixing both keeps runs at different seeds comparable;
   the seed still chooses every program. *)
let candidates = 100

let stratified ?(distinct = false) ?(span = 1.) ~seed ~classes ~per_class () =
  let stream = List.mapi (fun i sc -> (i, sc)) (Factory.sample ~seed ~count:3000) in
  let pick (kind, family) =
    let seen = Hashtbl.create 64 and kept = ref 0 in
    let keep (_, (sc : Factory.scenario)) =
      let fresh = not (distinct && Hashtbl.mem seen sc.Factory.sc_source) in
      sc.Factory.sc_kind = kind && sc.Factory.sc_family = family && !kept < candidates && fresh
      && begin
           Hashtbl.replace seen sc.Factory.sc_source ();
           incr kept;
           true
         end
    in
    let pool =
      List.filter keep stream
      |> List.stable_sort (fun (_, a) (_, b) ->
             Int.compare (Factory.scenario_size a) (Factory.scenario_size b))
      |> Array.of_list
    in
    let n = Array.length pool in
    if n < per_class then
      failwith (Printf.sprintf "seed %d: only %d %s/%s scenarios" seed n
                  (Factory.kind_name kind) (Factory.family_name family));
    List.init per_class (fun k ->
        pool.(int_of_float
                (span *. float_of_int (((2 * k) + 1) * n) /. float_of_int (2 * per_class))))
  in
  List.concat_map pick classes
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

let corpus_classes =
  List.concat_map
    (fun k -> [ (k, Factory.Syn); (k, Factory.Css) ])
    Factory.[ Par_clean; Par_racy; Fuse_valid; Fuse_broken ]

let corpus_scenarios seed = stratified ~seed ~classes:corpus_classes ~per_class:3 ()

(* The pool width of the campaign this workload mirrors, as
   [retreet gen --check -j 2] runs it. *)
let corpus_jobs = 2

(* The campaign's queries, rebuilt from the scenarios for the traced
   run: the race query per program, the fused sibling's race query and
   the equivalence query, each expected to match the constructed truth. *)
let corpus_queries scenarios =
  let budget = Corpus.default_budget in
  List.concat
    (List.mapi
       (fun i (sc : Factory.scenario) ->
         let id plane = Printf.sprintf "%d.%s" i plane in
         let p = Programs.load sc.Factory.sc_source in
         let race =
           { id = id "race"; budget; spec = Race p;
             expect = (match sc.Factory.sc_expect_race with `Free -> Holds | `Racy -> Refuted) }
         in
         match sc.Factory.sc_sibling with
         | None -> [ race ]
         | Some sib ->
           let p' = Programs.load sib in
           [ race;
             { id = id "race(fused)"; budget; spec = Race p'; expect = Holds };
             { id = id "equiv"; budget; spec = Equiv (p, p', sc.Factory.sc_map);
               expect =
                 (match sc.Factory.sc_expect_equiv with
                  | Some `Conflict -> Refuted
                  | Some `Equivalent | None -> Holds) } ])
       scenarios)

let corpus_sources scenarios =
  List.concat_map
    (fun (sc : Factory.scenario) -> sc.Factory.sc_source :: Option.to_list sc.Factory.sc_sibling)
    scenarios

(* ------------------------------------------------------------------ *)
(* serve-repeat: two closed-loop clients against one Serve.Core        *)

(* The traffic mix is chosen, not measured: the repository records no
   real serve traffic.  400 hits per miss make nearly every request a
   hit, so latency_p50_ms is the hit path, while the 24 misses, more
   than ten, put latency_tail_ms on the solve path.  A round of about
   10,000 hits still ends in a few seconds, so a run holds several. *)
let serve_repeats = 400

(* Distinct synthetic parallel-composition sources, twelve race-free and
   twelve racy, from the smaller half of each class, with their expected
   race exit codes.  (The factory's CSS family has only a handful of
   distinct parallel programs.)  The half-size cut is also a choice: the
   few largest programs would dominate the miss phase, and leaving them
   out keeps seeds comparable. *)
let serve_sources seed =
  stratified ~distinct:true ~span:0.5 ~seed ~classes:Factory.[ (Par_clean, Syn); (Par_racy, Syn) ]
    ~per_class:12 ()
  |> List.map (fun (sc : Factory.scenario) ->
         (sc.Factory.sc_source, match sc.Factory.sc_expect_race with `Free -> 0 | `Racy -> 1))

type round = {
  r_pass : pass;
  r_setup : float;
  hits : float list;
  misses : float list;
  metrics : string;
}

(* One round on a fresh core: each client asks each of its sources once
   (a miss that fills the cache); once both clients have their miss
   replies, each asks its sources again [serve_repeats] times (all
   hits).  The barrier keeps the hit phase off solver workers still
   busy with the other client's misses.  A hit must return the miss
   reply byte for byte. *)
let serve_round seed () =
  speed_sample ~cores:2 ();
  (* every round starts from the same compacted heap *)
  Gc.compact ();
  let (sources, core), setup =
    time (fun () -> (serve_sources seed, Serve.Core.create ~workers:2 ()))
  in
  let mine i = List.filteri (fun k _ -> k mod 2 = i) sources in
  let hits = Array.make 2 [] and misses = Array.make 2 [] in
  let m = Mutex.create () and all_missed = Condition.create () and missed = ref 0 in
  let barrier () =
    Mutex.protect m (fun () ->
        incr missed;
        Condition.broadcast all_missed;
        while !missed < 2 do Condition.wait all_missed m done)
  in
  let client i =
    let options = { Serve.default_options with Serve.client = Printf.sprintf "client-%d" i } in
    let ask source =
      let reply, dt = time (fun () -> Serve.Core.solve core ~options ~source) in
      (reply, sample dt)
    in
    let first =
      List.map
        (fun (source, code) ->
          let reply, dt = ask source in
          misses.(i) <- dt :: misses.(i);
          let error =
            match reply with
            | Serve.Verdict { code = c; _ } when c = code -> None
            | r ->
              Some (Printf.sprintf "serve: miss replied %s %d, expected %d"
                      (Serve.status_word r) (Serve.reply_code r) code)
          in
          record ~decided:(Serve.reply_code reply <> 3) error;
          (source, reply))
        (mine i)
    in
    barrier ();
    for _ = 1 to serve_repeats do
      List.iter
        (fun (source, miss) ->
          let reply, dt = ask source in
          hits.(i) <- dt :: hits.(i);
          record ~decided:(Serve.reply_code reply <> 3)
            (if reply = miss then None else Some "serve: hit differs from its miss reply"))
        first
    done
  in
  let t0 = now () in
  let threads = List.init 2 (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let metrics = Serve.Core.metrics_text core in
  ignore (Serve.Core.drain ~grace:5. core);
  let hits = List.concat (Array.to_list hits) and misses = List.concat (Array.to_list misses) in
  let latencies = hits @ misses in
  { r_pass = { wall; queries = List.length latencies; latencies }; r_setup = setup; hits; misses;
    metrics }

(* A "name   value" row of Serve.Core.metrics_text. *)
let metric text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ k; v ] when k = name -> float_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0.

(* The serve.* rows of one round. *)
let serve_rows r =
  let m = metric r.metrics in
  [ ("cache_hits", m "cache_hits"); ("cache_misses", m "cache_misses");
    ("overloaded", m "overloaded"); ("hit_ms", 1000. *. median r.hits);
    ("miss_ms", 1000. *. median r.misses); ("solve_p50_ms", m "solve_p50_ms") ]

let serve args =
  if not args.trace then begin
    let rounds = repeat ~seconds:args.seconds (serve_round args.seed) in
    samples := [ ("rounds", List.length rounds) ];
    `End_to_end
      (let best = fastest (List.map (fun r -> r.r_pass) rounds) in
       end_to_end ~setup:(List.map (fun r -> r.r_setup) rounds) best @ latency best)
  end
  else begin
    (* no hook runs inside the daemon; the traced round differs only in
       reading the metrics, so the overhead measures round-to-round noise *)
    let base = serve_round args.seed () in
    let created0 = Solver_ctx.created () in
    let r = serve_round args.seed () in
    let ctx_created = Solver_ctx.created () - created0 in
    let sources, gen_s = time (fun () -> serve_sources args.seed) in
    `Per_layer
      {
        empty_report with
        front = front_end (List.map fst sources);
        ctx_created;
        gen_s;
        serve = serve_rows r;
        overhead_pct = 100. *. (r.r_pass.wall /. base.r_pass.wall -. 1.);
      }
  end

let corpus args =
  if not args.trace then begin
    (* set-up: the factory draw and loading its programs, three times
       before each batch *)
    let draws () =
      List.init 3 (fun _ -> time (fun () -> corpus_queries (corpus_scenarios args.seed)))
    in
    let first = draws () in
    let setup = ref (List.map snd first) in
    let queries = fst (List.hd first) in
    let runs = Array.make (List.length queries) [] in
    (* One batch: every query of the draw, validated at Witness level
       against the factory's truth, on the pool the campaign uses, each
       timed on its worker.  Then batches again while the next,
       projected from the longest so far, still ends within [seconds].
       Before each batch, three speed samples on two cores, and the heap
       is compacted. *)
    let batch () =
      List.iter (speed_sample ~cores:2) [ (); (); () ];
      Gc.compact ();
      let results, wall =
        time (fun () ->
            Pool.run_batch ~jobs:corpus_jobs
              (List.map (fun q _slice -> snd (time (fun () -> validated q))) queries))
      in
      List.iteri
        (fun i -> function
          | Ok dt -> runs.(i) <- sample dt :: runs.(i)
          | Error _ -> record ~decided:false (Some "corpus: query cancelled by the batch"))
        results;
      Printf.eprintf "sample batch %.4f\n%!" wall;
      setup := List.map snd (draws ()) @ !setup
    in
    let batches = repeat ~seconds:args.seconds batch in
    samples := [ ("batches", List.length batches); ("queries", List.length queries) ];
    let best =
      List.concat
        (List.map2 (fun q r -> if r = [] then [] else [ (q.id, minimum r) ]) queries (Array.to_list runs))
    in
    (* The geometric mean is over scenarios, each the sum of its
       queries: a query of a millisecond varies with what the other
       worker runs beside it. *)
    let scenario id = String.sub id 0 (String.index id '.') in
    let per_scenario = Hashtbl.create 32 in
    List.iter
      (fun (id, t) ->
        let k = scenario id in
        Hashtbl.replace per_scenario k (t +. Option.value (Hashtbl.find_opt per_scenario k) ~default:0.))
      best;
    `End_to_end
      (end_to_end ~setup:!setup
         { wall = sum (List.map snd best); queries = List.length best;
           latencies = List.of_seq (Hashtbl.to_seq_values per_scenario) })
  end
  else begin
    let scenarios, gen_s = time (fun () -> corpus_scenarios args.seed) in
    let queries = corpus_queries scenarios in
    let batch task =
      let created0 = Solver_ctx.created () in
      let results, wall =
        time (fun () ->
            Pool.run_batch ~jobs:corpus_jobs
              (List.map (fun q _slice -> time (fun () -> task q)) queries))
      in
      let ok =
        List.concat
          (List.map2
             (fun q -> function
               | Ok (v, dt) -> [ (q.id, v, dt) ]
               | Error _ ->
                 failures := (q.id ^ ": cancelled by the batch") :: !failures;
                 [])
             queries results)
      in
      ( List.map (fun (id, v, _) -> (id, v)) ok,
        sum (List.map (fun (_, _, dt) -> dt) ok),
        wall,
        Solver_ctx.created () - created0 )
    in
    let vs, task_s, batch_s, _ = batch validated in
    let _, _, plain_s, _ = batch plain in
    let rows, _, traced_s, ctx_created = batch traced in
    `Per_layer
      {
        queries = rows;
        front = front_end (corpus_sources scenarios);
        ctx_created;
        validation_s = sum (List.map (fun (_, v) -> v.v_validation_s) vs);
        batch_s;
        task_s;
        gen_s;
        serve = serve_rows (serve_round args.seed ());
        overhead_pct = 100. *. (traced_s /. plain_s -. 1.);
      }
  end

(* ------------------------------------------------------------------ *)
(* Stamp and output                                                    *)

(* Without a git checkout, the revision is a digest of the library and
   CLI sources. *)
let source_digest () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  let files = List.concat_map (fun d -> if Sys.file_exists d then walk d else []) [ "lib"; "bin" ] in
  "src-" ^ Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) files)))

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference" then begin
    let (), dt = time reference_kernel in
    Printf.printf "%.17g\n" dt;
    exit 0
  end;
  let args = parse_args () in
  let rev = match args.rev with Some r when r <> "" -> r | _ -> source_digest () in
  let t0 = now () in
  let outcome =
    match args.workload with
    | "paper-cold" -> paper args ~warm:false
    | "paper-warm" -> paper args ~warm:true
    | "corpus" -> corpus args
    | _ -> serve args
  in
  let metrics, speed =
    match outcome with
    | `End_to_end m ->
      speed_sample ();
      let k = speed_factor () in
      let raw (name, v, _) = Printf.sprintf "%S: %s" name (json_number v) in
      ( List.map (scaled k) m,
        Printf.sprintf
          ", \"reference_min_s\": %s, \"reference_samples\": %d, \"speed_factor\": %s, \"raw\": {%s}"
          (json_number (minimum !reference_s)) (List.length !reference_s) (json_number k)
          (String.concat ", " (List.map raw m)) )
    | `Per_layer t ->
      print_endline (meters_line t);
      (per_layer t, "")
  in
  List.iter (fun e -> prerr_endline ("FAILED " ^ e)) (List.rev !failures);
  Printf.printf
    "stamp {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"rev\": %S, \"cores\": %d, \
     \"ocaml\": %S, \"samples\": {%s}, \"query_s\": {%s}, \"wall_s\": %.3f%s}\n"
    args.workload args.seed args.trace rev (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) !samples))
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.4f" k v) !query_s))
    (now () -. t0) speed;
  let failed = List.length !failures in
  let attempted = max 1 !attempted in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))
