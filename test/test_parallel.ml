(* Differential harness for the multi-domain batch solver.

   The contract under test: a batch of queries produces byte-identical
   results no matter how many worker domains run it, in what order the
   tasks are picked up, or what ran before them in the process — because
   every query runs on a fresh Solver_ctx with per-query fault re-arming.
   The harness runs every bundled program's data-race query serially and
   at -j 2/4/8 (clean, under an armed fault site, under tight
   deterministic budgets, and both at once) and asserts identical
   verdict signatures: verdict class, witness tree and blocks, progress
   counters, validation outcome, and the CLI exit code derived from
   them.  MONA exports are compared byte-for-byte the same way.

   Wall-clock budgets are inherently racy (a verdict may degrade to
   Unknown depending on timing), so they get the weaker — but still
   load-bearing — property: a batch killed mid-flight by a shared
   wall-clock budget may turn verdicts into Unknown or cancel the tail,
   but may never flip a definite verdict. *)

let level = Validate.Witness

let loaded =
  lazy (List.map (fun (n, s) -> (n, Programs.load s)) Programs.all_named)

(* --- verdict signatures: everything the CLI surfaces --- *)

let signature = function
  | Error (r : Engine.reason) ->
    Fmt.str "cancelled:%s" (Engine.resource_name r.Engine.resource)
  | Ok (verdict, report) ->
    let v =
      match verdict with
      | Analysis.Race_free -> "race-free"
      | Analysis.Race cx ->
        Fmt.str "race q1=%d q2=%d %a" cx.Analysis.cx_q1 cx.Analysis.cx_q2
          Treeauto.pp_tree cx.Analysis.cx_tree
      | Analysis.Race_unknown u ->
        Fmt.str "unknown:%s %d/%d"
          (Engine.resource_name u.Analysis.reason.Engine.resource)
          u.Analysis.pairs_done u.Analysis.pairs_total
    in
    Fmt.str "%s validate=%b" v (Validate.ok report)

let exit_code = function
  | Error _ -> 3
  | Ok (verdict, report) ->
    let c =
      match verdict with
      | Analysis.Race_free -> 0
      | Analysis.Race _ -> 1
      | Analysis.Race_unknown _ -> 3
    in
    if Validate.ok report then c else 4

(* Run the race query over [progs] through the pool, with the same
   per-task wrapping the CLI batch command uses. *)
let run_batch ~jobs ?budget ?arm progs =
  let tasks =
    List.map
      (fun (_name, info) task_budget ->
        let query () =
          Validate.check_data_race ~level ~budget:task_budget info
        in
        match arm with
        | None -> query ()
        | Some a ->
          a ();
          Fun.protect ~finally:Faults.disarm query)
      progs
  in
  Pool.run_batch ~jobs ?budget tasks

let arm_flip () = Faults.arm ~site:"bdd.branch_flip" ~seed:1 ()

(* Deterministic tight budget: step/node caps only — no wall clock, so
   every run exhausts at exactly the same point. *)
let tight = Engine.budget ~max_steps:10 ()
let bounded = Engine.budget ~max_steps:5000 ~max_bdd_nodes:200_000 ()

let differential ?budget ?arm () =
  let progs = Lazy.force loaded in
  let reference = run_batch ~jobs:1 ?budget ?arm progs in
  List.iter
    (fun jobs ->
      let results = run_batch ~jobs ?budget ?arm progs in
      List.iteri
        (fun i ((name, _), (r_ref, r)) ->
          Alcotest.(check string)
            (Fmt.str "%s (#%d) verdict at -j %d" name i jobs)
            (signature r_ref) (signature r);
          Alcotest.(check int)
            (Fmt.str "%s (#%d) exit code at -j %d" name i jobs)
            (exit_code r_ref) (exit_code r))
        (List.combine progs (List.combine reference results)))
    [ 2; 4; 8 ]

let test_differential_clean () = differential ()
let test_differential_tight () = differential ~budget:tight ()
let test_differential_inject () = differential ~budget:bounded ~arm:arm_flip ()

let test_differential_inject_tight () =
  differential ~budget:tight ~arm:arm_flip ()

(* --- MONA exports are byte-identical across pool sizes --- *)

let mona_text info =
  let env, f = Encode.data_race (Encode.make info) in
  Mona.to_mona env f

let test_mona_identical () =
  let progs = Lazy.force loaded in
  let tasks = List.map (fun (_, info) _budget -> mona_text info) progs in
  let serial = Pool.run_batch ~jobs:1 tasks in
  List.iter
    (fun jobs ->
      let par = Pool.run_batch ~jobs tasks in
      List.iteri
        (fun i ((name, _), (s, p)) ->
          match (s, p) with
          | Ok s, Ok p ->
            if not (String.equal s p) then
              Alcotest.failf "%s (#%d): .mona output differs at -j %d" name i
                jobs
          | _ -> Alcotest.failf "%s: mona export failed" name)
        (List.combine progs (List.combine serial par)))
    [ 4; 8 ]

(* --- qcheck: scheduling is invisible --- *)

let shuffle rand l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Reference signatures per program, from a serial clean run in the
   bundled order. *)
let reference_sigs =
  lazy
    (let progs = Lazy.force loaded in
     List.map2
       (fun (name, _) r -> (name, signature r))
       progs
       (run_batch ~jobs:1 ~budget:tight progs))

let test_random_orders =
  QCheck.Test.make ~count:6
    ~name:"random batch order and pool size never change verdicts"
    QCheck.(pair small_nat (int_range 1 8))
    (fun (seed, jobs) ->
      let rand = Random.State.make [| seed; jobs |] in
      let progs = shuffle rand (Lazy.force loaded) in
      let results = run_batch ~jobs ~budget:tight progs in
      List.for_all2
        (fun (name, _) r ->
          List.assoc name (Lazy.force reference_sigs) = signature r)
        progs results)

(* The clean (unbudgeted) verdict class per program, for the wall-clock
   soundness property below. *)
let reference_class =
  lazy
    (let progs = Lazy.force loaded in
     List.map2
       (fun (name, _) r ->
         match r with
         | Ok (Analysis.Race_free, _) -> (name, `Race_free)
         | Ok (Analysis.Race _, _) -> (name, `Race)
         | _ -> (name, `Unknown))
       progs
       (run_batch ~jobs:1 progs))

let test_wall_clock_kill =
  QCheck.Test.make ~count:5
    ~name:"wall-clock kill mid-batch never flips a verdict"
    QCheck.(pair (int_range 1 8) (int_range 1 50))
    (fun (jobs, centis) ->
      let budget = Engine.budget ~timeout:(float_of_int centis /. 100.) () in
      let progs = Lazy.force loaded in
      let results = run_batch ~jobs ~budget progs in
      List.for_all2
        (fun (name, _) r ->
          match (r, List.assoc name (Lazy.force reference_class)) with
          (* cut-short work may only degrade to Unknown / cancelled *)
          | (Error _ | Ok (Analysis.Race_unknown _, _)), _ -> true
          | Ok (Analysis.Race_free, _), cls -> cls = `Race_free
          | Ok (Analysis.Race _, _), cls -> cls = `Race)
        progs results)

(* --- slice arithmetic --- *)

let test_slice_share () =
  let check = Alcotest.(check (float 1e-9)) in
  check "expired" 0. (Pool.slice_share ~left:0. ~remaining:5 ~jobs:4);
  check "negative" 0. (Pool.slice_share ~left:(-1.) ~remaining:5 ~jobs:4);
  check "no tasks" 0. (Pool.slice_share ~left:10. ~remaining:0 ~jobs:4);
  check "last task gets everything" 6.
    (Pool.slice_share ~left:6. ~remaining:1 ~jobs:4);
  check "one full round" 6. (Pool.slice_share ~left:6. ~remaining:4 ~jobs:4);
  check "two rounds" 3. (Pool.slice_share ~left:6. ~remaining:5 ~jobs:4);
  check "three rounds" 2. (Pool.slice_share ~left:6. ~remaining:10 ~jobs:4);
  check "serial splits evenly" 2.
    (Pool.slice_share ~left:6. ~remaining:3 ~jobs:1);
  check "jobs=0 treated as serial" 2.
    (Pool.slice_share ~left:6. ~remaining:3 ~jobs:0)

let test_slice_share_bounds =
  QCheck.Test.make ~count:500 ~name:"slice is within [0, left]"
    QCheck.(triple (float_bound_exclusive 100.) (int_bound 64) (int_bound 16))
    (fun (left, remaining, jobs) ->
      let s = Pool.slice_share ~left ~remaining ~jobs in
      s >= 0. && s <= max 0. left)

(* --- context ownership and isolation --- *)

let test_ownership_violation () =
  let ctx = Solver_ctx.create () in
  (* usable on its owner... *)
  ignore (Solver_ctx.with_ctx ctx (fun () -> Bdd.var 0));
  (* ...and rejected, fast, on any other domain *)
  let d =
    Domain.spawn (fun () ->
        match Solver_ctx.with_ctx ctx (fun () -> Bdd.var 0) with
        | _ -> false
        | exception Solver_ctx.Ownership_violation _ -> true)
  in
  Alcotest.(check bool) "cross-domain use raises" true (Domain.join d)

let test_fresh_ctx_isolated () =
  let a = Bdd.conj (Bdd.var 0) (Bdd.var 1) in
  let b = Solver_ctx.with_fresh (fun () -> Bdd.conj (Bdd.var 0) (Bdd.var 1)) in
  Alcotest.(check bool) "same shape, different store" false (a == b);
  (* the ambient store is untouched by the fresh extent *)
  let a' = Bdd.conj (Bdd.var 0) (Bdd.var 1) in
  Alcotest.(check bool) "ambient hash-consing unaffected" true (a == a')

(* --- pool plumbing --- *)

let test_pool_ordering () =
  (* results come back in submission order whatever the pool size *)
  let tasks = List.init 23 (fun i _budget -> i * i) in
  List.iter
    (fun jobs ->
      let r = Pool.run_batch ~jobs tasks in
      List.iteri
        (fun i x ->
          match x with
          | Ok v -> Alcotest.(check int) (Fmt.str "slot %d" i) (i * i) v
          | Error _ -> Alcotest.fail "unexpected budget error")
        r)
    [ 0; 1; 2; 4; 8; 32 ]

exception Boom

let test_pool_crash_propagates () =
  let tasks =
    [ (fun _ -> 1); (fun _ -> raise Boom); (fun _ -> 3) ]
  in
  match Pool.run_batch ~jobs:4 tasks with
  | _ -> Alcotest.fail "expected the task exception to re-raise"
  | exception Boom -> ()

(* --- run_batch contract, clause by clause (see pool.mli) --- *)

let outcomes ?budget ~jobs tasks expected () =
  let name = function
    | Ok _ -> "ok"
    | Error (r : Engine.reason) -> Engine.resource_name r.Engine.resource
  in
  Alcotest.(check (list string)) "outcomes" expected
    (List.map name (Pool.run_batch ~jobs ?budget tasks))

(* [e] escapes the middle one of three tasks; [never] must be cancelled *)
let around e = [ ignore; (fun _ -> raise e); ignore ]
let never _ = raise Boom
let steps = { Engine.resource = Engine.Solver_steps; used = 2; limit = 1 }
let caps = Engine.budget ~max_bdd_nodes:8 ~max_states:9 ~max_steps:7 ()

let budgets ?budget jobs n =
  Pool.run_batch ~jobs ?budget (List.init n (fun _ -> Fun.id))

let all_get ?budget expected () =
  Alcotest.(check bool) "task budgets" true
    (List.for_all (( = ) (Ok expected)) (budgets ?budget 2 4))

let batch_contract =
  [
    ("empty batch", outcomes ~jobs:4 [] []);
    ("no budget means unlimited", all_get Engine.unlimited);
    ("caps passed verbatim", all_get ~budget:caps caps);
    ( "timeout sliced per task",
      fun () ->
        (* serial, so task [i] starts with [4 - i] tasks not yet started *)
        let budget = Engine.budget ~timeout:10. ~max_steps:7 () in
        List.iteri
          (fun i -> function
            | Ok { Engine.timeout = Some s; max_steps = Some 7; _ }
              when s > 0. && s <= 10. /. float_of_int (4 - i) -> ()
            | _ -> Alcotest.failf "task %d: not a slice of the budget" i)
          (budgets ~budget 1 4) );
    ( "expired deadline cancels the rest",
      outcomes ~jobs:1 ~budget:(Engine.budget ~timeout:0.02 ())
        [ (fun _ -> Unix.sleepf 0.1); never; never ]
        [ "ok"; "wall-clock"; "wall-clock" ] );
    ( "Out_of_budget degrades one task",
      fun () ->
        Alcotest.(check bool) "reason kept" true
          (Pool.run_batch ~jobs:2 (around (Engine.Out_of_budget steps))
          = [ Ok (); Error steps; Ok () ]) );
    ( "Stack_overflow degrades one task",
      outcomes ~jobs:2 (around Stack_overflow) [ "ok"; "call-stack"; "ok" ] );
    ( "Out_of_memory degrades one task",
      outcomes ~jobs:2 (around Out_of_memory) [ "ok"; "heap-memory"; "ok" ] );
    ( "crash cancels unstarted tasks",
      fun () ->
        let ran = Atomic.make false in
        Alcotest.check_raises "re-raised" Boom (fun () ->
            ignore
              (Pool.run_batch ~jobs:1
                 [ (fun _ -> raise Boom); (fun _ -> Atomic.set ran true) ]));
        Alcotest.(check bool) "a later task ran" false (Atomic.get ran) );
    ( "crash re-raised after in-flight tasks",
      fun () ->
        (* whoever takes [slow] first starts it before [Boom] is taken *)
        let finished = Atomic.make false in
        let slow _ = Unix.sleepf 0.1; Atomic.set finished true in
        Alcotest.check_raises "re-raised" Boom (fun () ->
            ignore (Pool.run_batch ~jobs:2 [ slow; (fun _ -> raise Boom) ]));
        Alcotest.(check bool) "in-flight done" true (Atomic.get finished) );
    ( "at most [jobs] domains",
      fun () ->
        let task _ = Unix.sleepf 0.002; Domain.self () in
        List.iter
          (fun jobs ->
            let seen = Pool.run_batch ~jobs (List.init 16 (fun _ -> task)) in
            let n = List.length (List.sort_uniq compare seen) in
            if n > max 1 jobs then Alcotest.failf "-j %d: %d domains" jobs n)
          [ 0; 1; 3 ] );
    ( "fresh context per task",
      fun () ->
        let mk _ = Bdd.conj (Bdd.var 0) (Bdd.var 1) in
        match Pool.run_batch ~jobs:1 [ mk; mk ] with
        | [ Ok a; Ok b ] ->
          Alcotest.(check bool) "store shared" false (a == b || a == mk ())
        | _ -> Alcotest.fail "unexpected Error" );
    ( "concurrent batches are independent",
      fun () ->
        let b k () = Pool.run_batch ~jobs:2 (List.init 9 (fun i _ -> k + i)) in
        let other = Domain.spawn (b 100) in
        let mine = b 0 () in
        Alcotest.(check bool) "own results" true
          (mine = List.init 9 Result.ok
          && Domain.join other = List.init 9 (fun i -> Ok (100 + i))) );
  ]

(* --- the supervised pool itself --- *)

module S = Pool.Supervised

let done_ = function
  | S.Done v -> v
  | S.Crashed _ | S.Cancelled _ -> Alcotest.fail "job did not complete"

let cancelled = function S.Cancelled _ -> true | _ -> false

(* [f] on a fresh pool, drained afterwards *)
let pooled ?max_retries ?backoff workers f () =
  let p = S.create ~workers ?max_retries ?backoff () in
  Fun.protect ~finally:(fun () -> ignore (S.drain p)) (fun () -> f p)

let spin_until flag =
  let give_up = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.005
  done

let crash_retries max_retries =
  pooled ~max_retries 0 (fun p ->
      let t = S.submit p (fun () -> failwith "boom") in
      S.work p;
      let { S.crashes; retries; restarts; _ } = S.stats p in
      Alcotest.(check (list int)) "crashes, retries, restarts"
        [ max_retries + 1; max_retries; 0 ] [ crashes; retries; restarts ];
      match S.await p t with
      | S.Crashed { attempts; last_exn = "Failure(\"boom\")" } ->
        Alcotest.(check int) "attempts" (max_retries + 1) attempts
      | _ -> Alcotest.fail "expected Crashed with the job's exception")

let supervised =
  [
    ( "work runs the queue on the caller",
      pooled 0 (fun p ->
          let log = ref [] in
          let job i () = log := i :: !log; Domain.self () in
          let ts = List.init 3 (fun i -> S.submit p (job i)) in
          Alcotest.(check int) "ran without a worker" 0 (List.length !log);
          S.work p;
          Alcotest.(check (list int)) "FIFO" [ 2; 1; 0 ] !log;
          let here t = done_ (S.await p t) = Domain.self () in
          Alcotest.(check bool) "on the caller" true (List.for_all here ts)) );
    ( "depth and stats",
      pooled 0 (fun p ->
          List.iter (fun i -> ignore (S.submit p (fun () -> i))) [ 1; 2; 3 ];
          let queued = S.depth p in
          S.work p;
          let { S.submitted; completed; max_depth; _ } = S.stats p in
          Alcotest.(check (list int)) "depth, stats" [ 3; 0; 3; 3; 3 ]
            [ queued; S.depth p; submitted; completed; max_depth ]) );
    ("crash without retries", crash_retries 0);
    ("crash with two retries", crash_retries 2);
    ( "caller survives a crashing job",
      pooled 0 (fun p ->
          ignore (S.submit p (fun () -> failwith "boom"));
          let t = S.submit p (fun () -> 42) in
          S.work p;
          Alcotest.(check int) "later job ran" 42 (done_ (S.await p t))) );
    ( "retries run before later jobs",
      pooled 0 (fun p ->
          let log = ref [] in
          let job name () =
            log := name :: !log;
            if !log = [ "a" ] then failwith "once"
          in
          ignore (S.submit p (job "a"));
          ignore (S.submit p (job "b"));
          S.work p;
          Alcotest.(check (list string)) "order" [ "b"; "a"; "a" ] !log) );
    ( "respawn after the given backoff",
      let calls = ref [] in
      let backoff k = calls := k :: !calls; 0. in
      pooled ~max_retries:0 ~backoff 1 (fun p ->
          for _ = 1 to 2 do ignore (S.run p (fun () -> failwith "boom")) done;
          Alcotest.(check int) "respawned" 7 (done_ (S.run p (fun () -> 7)));
          Alcotest.(check (list int)) "restarts, backoff indices" [ 2; 1; 0 ]
            ((S.stats p).S.restarts :: !calls)) );
    ( "default backoff is bounded",
      fun () ->
        Alcotest.(check (list (float 1e-9))) "k = 0, 1, 5, 6, 40"
          [ 0.01; 0.02; 0.32; 0.5; 0.5 ]
          (List.map S.default_backoff [ 0; 1; 5; 6; 40 ]) );
    ( "run after drain is cancelled",
      fun () ->
        let p = S.create ~workers:1 () in
        ignore (S.drain p);
        Alcotest.(check bool) "cancelled" true (cancelled (S.run p ignore));
        Alcotest.(check int) "submitted" 0 (S.stats p).S.submitted );
    ( "drain cancels queued jobs",
      fun () ->
        let p = S.create ~workers:0 () in
        let t = S.submit p ignore in
        let first = S.drain ~grace:0. p in
        Alcotest.(check (list int)) "cancelled, then idempotent" [ 1; 0 ]
          [ first; S.drain p ];
        Alcotest.(check bool) "job cancelled" true (cancelled (S.await p t)) );
    ( "drain lets jobs finish within grace",
      fun () ->
        let p = S.create ~workers:1 () in
        let slow = S.submit p (fun () -> Unix.sleepf 0.1; 7) in
        let queued = S.submit p (fun () -> 8) in
        Alcotest.(check int) "cancelled" 0 (S.drain ~grace:5. p);
        Alcotest.(check (list int)) "results" [ 7; 8 ]
          (List.map (fun t -> done_ (S.await p t)) [ slow; queued ]) );
    ( "drain past grace cuts the queued tail",
      fun () ->
        let p = S.create ~workers:1 () in
        let started = Atomic.make false and release = Atomic.make false in
        let held () = Atomic.set started true; spin_until release; 7 in
        let inflight = S.submit p held in
        let tail = S.submit p (fun () -> 8) in
        spin_until started;
        Alcotest.(check int) "cancelled" 1 (S.drain ~grace:0.05 p);
        Atomic.set release true;
        Alcotest.(check int) "in-flight" 7 (done_ (S.await p inflight));
        Alcotest.(check bool) "tail" true (cancelled (S.await p tail)) );
    ( "concurrent callers",
      pooled 2 (fun p ->
          let ok = Atomic.make 0 in
          let client c =
            for i = 1 to 25 do
              if done_ (S.run p (fun () -> (c, i))) = (c, i) then Atomic.incr ok
            done
          in
          List.iter Thread.join (List.init 4 (Thread.create client));
          Alcotest.(check int) "own results" 100 (Atomic.get ok)) );
    ( "await in any order",
      pooled 2 (fun p ->
          let ts = List.init 10 (fun i -> (i, S.submit p (fun () -> i * 3))) in
          List.iter
            (fun (i, t) ->
              Alcotest.(check int) "value" (i * 3) (done_ (S.await p t)))
            (List.rev ts)) );
  ]

let quick = List.map (fun (name, f) -> Alcotest.test_case name `Quick f)

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "clean batch, -j 1/2/4/8" `Quick
            test_differential_clean;
          Alcotest.test_case "tight deterministic budget" `Quick
            test_differential_tight;
          Alcotest.test_case "armed fault site" `Quick
            test_differential_inject;
          Alcotest.test_case "armed fault site + tight budget" `Quick
            test_differential_inject_tight;
          Alcotest.test_case "MONA exports byte-identical" `Quick
            test_mona_identical;
        ] );
      ( "scheduling invisibility",
        [
          QCheck_alcotest.to_alcotest test_random_orders;
          QCheck_alcotest.to_alcotest test_wall_clock_kill;
        ] );
      ( "budget slicing",
        [
          Alcotest.test_case "slice_share arithmetic" `Quick test_slice_share;
          QCheck_alcotest.to_alcotest test_slice_share_bounds;
        ] );
      ( "solver contexts",
        [
          Alcotest.test_case "ownership violation fails fast" `Quick
            test_ownership_violation;
          Alcotest.test_case "fresh contexts are isolated" `Quick
            test_fresh_ctx_isolated;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submission-order results" `Quick
            test_pool_ordering;
          Alcotest.test_case "task exceptions propagate" `Quick
            test_pool_crash_propagates;
        ] );
      ("batch contract", quick batch_contract);
      ("supervised pool", quick supervised);
    ]
