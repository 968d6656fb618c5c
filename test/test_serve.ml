(* The serve layer: supervised-pool fault sites, the weighted LRU reply
   cache, per-client admission ledgers, metered accounting, and Core's
   byte-identity with the batch rendering.

   The daemon's end-to-end behaviour (wire protocol, signals, sockets)
   lives in the cram test test/serve.t; this module pins the pieces that
   need process-internal observation — pool outcomes, cache stats,
   explicit ledger clocks — and the qcheck property that the cache can
   never serve bytes that differ from a cold solve. *)

let level = Validate.Witness
let source name = List.assoc name Programs.all_named

(* Exactly the per-query wrapping and rendering `retreet batch` uses:
   fresh context, check, render.  Core.solve must reproduce these bytes. *)
let batch_line ?(budget = Engine.unlimited) name =
  let info = Programs.load (source name) in
  Solver_ctx.with_fresh (fun () ->
      let r, _usage =
        Engine.metered (fun () -> Validate.check_data_race ~level ~budget info)
      in
      Validate.render_task Analysis.render_race r)

let opts ?(client = "test") ?(budget = Engine.unlimited) ?inject () =
  { Serve.client; budget; vlevel = level; inject }

(* --- pool.submit is caught: crash, restart, retry, typed outcome --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_submit_caught () =
  let p = Pool.Supervised.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> ignore (Pool.Supervised.drain p))
    (fun () ->
      Faults.arm ~site:"pool.submit" ~seed:1 ~period:1 ();
      let ticket = Pool.Supervised.submit p (fun () -> 0) in
      Faults.disarm ();
      (match Pool.Supervised.await p ticket with
      | Pool.Supervised.Crashed { attempts; last_exn } ->
        Alcotest.(check int) "attempts = 1 + max_retries" 2 attempts;
        Alcotest.(check bool)
          "crash names the injected site" true
          (contains ~sub:"pool.submit" last_exn)
      | Pool.Supervised.Done _ -> Alcotest.fail "sabotaged job completed"
      | Pool.Supervised.Cancelled _ -> Alcotest.fail "sabotaged job cancelled");
      (* the pool survived: a clean job still completes *)
      (match Pool.Supervised.run p (fun () -> 41 + 1) with
      | Pool.Supervised.Done v -> Alcotest.(check int) "pool alive" 42 v
      | _ -> Alcotest.fail "clean job did not complete after crashes");
      (* respawns are asynchronous (backoff); wait for the counters *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec stats () =
        let s = Pool.Supervised.stats p in
        if s.Pool.Supervised.restarts >= 2 || Unix.gettimeofday () > deadline
        then s
        else (Thread.delay 0.02; stats ())
      in
      let s = stats () in
      Alcotest.(check int) "two crashes" 2 s.Pool.Supervised.crashes;
      Alcotest.(check int) "one retry" 1 s.Pool.Supervised.retries;
      Alcotest.(check int) "two restarts" 2 s.Pool.Supervised.restarts);
  (* the same sabotage worked off by the calling thread, as run_batch
     does: the same typed outcome, and the caller survives it *)
  let p = Pool.Supervised.create ~workers:0 () in
  Faults.arm ~site:"pool.submit" ~seed:1 ~period:1 ();
  let ticket = Pool.Supervised.submit p (fun () -> 0) in
  Faults.disarm ();
  Pool.Supervised.work p;
  (match Pool.Supervised.await p ticket with
  | Pool.Supervised.Crashed { attempts; _ } ->
    Alcotest.(check int) "caller: attempts = 1 + max_retries" 2 attempts
  | _ -> Alcotest.fail "sabotaged job on the caller did not crash");
  ignore (Pool.Supervised.drain p)

(* --- the reply cache: weight bound + hit ≡ miss ≡ cold (QCheck) ---

   Keys are content hashes in the daemon, so a key determines its reply
   bytes.  The model mirrors that: the value stored under key k is
   always [value_of k], and the property asserts a find can only return
   that exact value or miss — eviction and refusal can lose warmth,
   never change bytes.  The weight invariant is checked after every
   operation, not just at the end. *)

type cache_op = Add of int * int | Find of int | Clear

let value_of k = (Printf.sprintf "reply-%d" k, k mod 5)

let cache_ops_gen =
  QCheck2.Gen.(
    pair (int_range 1 60)
      (list_size (int_range 1 120)
         (frequency
            [
              (5, map2 (fun k w -> Add (k, w)) (int_bound 15) (int_range 0 80));
              (4, map (fun k -> Find k) (int_bound 15));
              (1, return Clear);
            ])))

let test_cache_model =
  QCheck2.Test.make ~count:300 ~name:"cache: weight bounded, bytes never flip"
    cache_ops_gen (fun (capacity, ops) ->
      let c = Serve_cache.create ~capacity in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, w) -> Serve_cache.add c ~key:(string_of_int k) ~weight:w (value_of k)
          | Clear -> Serve_cache.clear c
          | Find k -> (
            match Serve_cache.find c (string_of_int k) with
            | None -> ()
            | Some v ->
              if v <> value_of k then
                QCheck2.Test.fail_report "cache returned foreign bytes"));
          let s = Serve_cache.stats c in
          s.Serve_cache.weight <= max 0 capacity
          && s.Serve_cache.weight >= 0
          && s.Serve_cache.entries >= 0)
        ops)

(* --- Core byte-identity with batch, cold and warm --- *)

let metric core key =
  Serve.Core.metrics_text core |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | k :: rest when k = key -> (
           match List.filter (fun s -> s <> "") rest with
           | [ v ] -> Some v
           | _ -> None)
         | _ -> None)

let verdict_of_reply name = function
  | Serve.Verdict { code; text } -> (text, code)
  | r -> Alcotest.fail (name ^ ": expected a verdict, got " ^ Serve.reply_text r)

let test_core_matches_batch () =
  let core = Serve.Core.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.Core.drain ~grace:1. core))
    (fun () ->
      let tight = Engine.budget ~max_steps:10 () in
      List.iter
        (fun name ->
          let src = source name in
          List.iter
            (fun budget ->
              let expect = batch_line ~budget name in
              let got =
                Serve.Core.solve core ~options:(opts ~budget ()) ~source:src
                |> verdict_of_reply name
              in
              Alcotest.(check (pair string int)) (name ^ " cold") expect got;
              (* warm path: the cache hit replays the same bytes *)
              let warm =
                Serve.Core.solve core ~options:(opts ~budget ()) ~source:src
                |> verdict_of_reply name
              in
              Alcotest.(check (pair string int)) (name ^ " warm") expect warm)
            [ Engine.unlimited; tight ])
        [ "size_counting"; "racy_writers" ];
      match metric core "cache_hits" with
      | Some v ->
        Alcotest.(check bool) "warm queries hit the cache" true
          (int_of_string v >= 4)
      | None -> Alcotest.fail "no cache_hits metric")

(* The acceptance scenario, in-process and genuinely concurrent: while a
   sabotaged query crashes its worker (twice — retry included), clean
   clients solving on other threads still get the exact batch bytes, and
   the victim gets the typed degradation. *)
let test_crash_isolation_concurrent () =
  let core = Serve.Core.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> ignore (Serve.Core.drain ~grace:1. core))
    (fun () ->
      let expect = batch_line "size_counting" in
      let victim = ref None in
      let vt =
        Thread.create
          (fun () ->
            victim :=
              Some
                (Serve.Core.solve core
                   ~options:
                     (opts ~client:"victim"
                        ~inject:("pool.submit", 1, 1) ())
                   ~source:(source "racy_writers")))
          ()
      in
      let results = Array.make 3 None in
      let clients =
        List.init 3 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Some
                    (Serve.Core.solve core
                       ~options:(opts ~client:(string_of_int i) ())
                       ~source:(source "size_counting")))
              ())
      in
      Thread.join vt;
      List.iter Thread.join clients;
      (match !victim with
      | Some (Serve.Server_unknown msg) ->
        Alcotest.(check bool) "degradation names the crash" true
          (contains ~sub:"pool.submit" msg)
      | Some r ->
        Alcotest.fail ("victim got " ^ Serve.status_word r ^ ": "
                       ^ Serve.reply_text r)
      | None -> Alcotest.fail "victim thread produced nothing");
      Array.iteri
        (fun i r ->
          match r with
          | Some reply ->
            Alcotest.(check (pair string int))
              (Printf.sprintf "concurrent client %d unaffected" i)
              expect
              (verdict_of_reply "client" reply)
          | None -> Alcotest.fail "client thread produced nothing")
        results)

(* Eviction pressure never changes bytes: a cache too small to hold any
   real reply (capacity 1) and a disabled cache (capacity 0) produce the
   same verdicts as a roomy one, twice in a row. *)
let test_eviction_never_flips () =
  let progs = [ "size_counting"; "racy_writers" ] in
  let expected = List.map (fun n -> batch_line n) progs in
  List.iter
    (fun cache_nodes ->
      let core = Serve.Core.create ~workers:2 ~cache_nodes () in
      Fun.protect
        ~finally:(fun () -> ignore (Serve.Core.drain ~grace:1. core))
        (fun () ->
          for _round = 1 to 2 do
            List.iter2
              (fun name expect ->
                let got =
                  Serve.Core.solve core ~options:(opts ()) ~source:(source name)
                  |> verdict_of_reply name
                in
                Alcotest.(check (pair string int))
                  (Printf.sprintf "%s under cache_nodes=%d" name cache_nodes)
                  expect got)
              progs expected
          done))
    [ 1_000_000; 1; 0 ]

(* --- durable snapshots: roundtrip, kill-9 fuzz, injected faults --- *)

let snap_entries =
  [
    ("key-one", 3, ("data-race-free", 0));
    ("key-two", 1, ("DATA RACE", 1));
    ("key-three", 17, ("UNKNOWN: wall-clock budget exhausted", 3));
  ]

let with_temp_path f =
  let path = Filename.temp_file "retreet-snap" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (path
        :: (match Sys.readdir (Filename.dirname path) with
           | exception Sys_error _ -> []
           | names ->
             Array.to_list names
             |> List.filter_map (fun n ->
                    let full = Filename.concat (Filename.dirname path) n in
                    if
                      String.length n > String.length (Filename.basename path)
                      && String.sub n 0 (String.length (Filename.basename path))
                         = Filename.basename path
                    then Some full
                    else None))))
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec is_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let test_snapshot_roundtrip () =
  with_temp_path (fun path ->
      (match Serve_snapshot.save ~path snap_entries with
      | Ok n -> Alcotest.(check bool) "wrote bytes" true (n > 0)
      | Error e -> Alcotest.fail ("save failed: " ^ e));
      let entries, status = Serve_snapshot.load ~path in
      (match status with
      | Serve_snapshot.Clean 3 -> ()
      | s -> Alcotest.fail ("expected clean load, got " ^ Serve_snapshot.describe s));
      Alcotest.(check bool) "entries roundtrip in order" true
        (entries = snap_entries);
      (* the empty snapshot is valid too *)
      (match Serve_snapshot.save ~path [] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("empty save failed: " ^ e));
      match Serve_snapshot.load ~path with
      | [], Serve_snapshot.Clean 0 -> ()
      | _, s ->
        Alcotest.fail ("empty snapshot misloaded: " ^ Serve_snapshot.describe s))

(* kill -9 at any byte offset: truncating the file at every position, or
   flipping any single byte, must yield a valid prefix of the saved
   entries (each kept reply byte-identical) or an empty cache — never a
   wrong reply, never an exception. *)
let test_snapshot_kill9_fuzz () =
  with_temp_path (fun path ->
      (match Serve_snapshot.save ~path snap_entries with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let data = read_file path in
      let len = String.length data in
      Alcotest.(check bool) "snapshot is non-trivial" true (len > 40);
      let check_mutant what mutant =
        write_file path mutant;
        let entries, status = Serve_snapshot.load ~path in
        if not (is_prefix entries snap_entries) then
          Alcotest.fail
            (Printf.sprintf "%s: load returned a non-prefix (%s)" what
               (Serve_snapshot.describe status))
      in
      for cut = 0 to len - 1 do
        check_mutant
          (Printf.sprintf "truncated at %d" cut)
          (String.sub data 0 cut)
      done;
      for pos = 0 to len - 1 do
        let b = Bytes.of_string data in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
        check_mutant (Printf.sprintf "byte %d flipped" pos) (Bytes.to_string b)
      done;
      (* trailing garbage after a clean footer is also just dropped *)
      check_mutant "trailing garbage" (data ^ "garbage-after-footer"))

let test_snapshot_write_fault () =
  with_temp_path (fun path ->
      (match Serve_snapshot.save ~path snap_entries with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let before = read_file path in
      Faults.arm ~site:"snapshot.write" ~seed:1 ~period:1 ();
      let r =
        Fun.protect ~finally:Faults.disarm (fun () ->
            Serve_snapshot.save ~path
              [ ("other-key", 1, ("other reply", 0)) ])
      in
      (match r with
      | Error msg ->
        Alcotest.(check bool) "failure names the site" true
          (contains ~sub:"snapshot.write" msg)
      | Ok _ -> Alcotest.fail "injected write fault did not fail the save");
      Alcotest.(check string) "old snapshot untouched" before (read_file path);
      (* no torn temp file left behind *)
      let dir = Filename.dirname path and base = Filename.basename path in
      Array.iter
        (fun n ->
          if
            String.length n > String.length base
            && String.sub n 0 (String.length base) = base
          then Alcotest.fail ("temp debris left behind: " ^ n))
        (Sys.readdir dir);
      (* and an injected load tear degrades to a valid prefix *)
      Faults.arm ~site:"snapshot.load" ~seed:1 ~period:1 ();
      let entries, status =
        Fun.protect ~finally:Faults.disarm (fun () ->
            Serve_snapshot.load ~path)
      in
      Alcotest.(check bool) "torn load is a prefix" true
        (is_prefix entries snap_entries);
      match status with
      | Serve_snapshot.Recovered _ -> ()
      | s ->
        Alcotest.fail ("expected recovery, got " ^ Serve_snapshot.describe s))

(* Warm restart through Core: a second core created on the same snapshot
   path replays byte-identical replies from the reloaded cache, without
   solving anything. *)
let test_core_warm_restart () =
  with_temp_path (fun path ->
      Sys.remove path;
      let progs = [ "size_counting"; "racy_writers" ] in
      let expected = List.map (fun n -> batch_line n) progs in
      let core1 =
        Serve.Core.create ~workers:2 ~snapshot:path ~snapshot_every:1000 ()
      in
      (match Serve.Core.snapshot_info core1 with
      | Some (descr, 0) ->
        Alcotest.(check bool) "first boot is cold" true
          (contains ~sub:"absent" descr)
      | _ -> Alcotest.fail "expected an absent-snapshot cold start");
      List.iter
        (fun name ->
          ignore (Serve.Core.solve core1 ~options:(opts ()) ~source:(source name)))
        progs;
      ignore (Serve.Core.drain ~grace:5. core1);
      Alcotest.(check bool) "drain wrote the snapshot" true (Sys.file_exists path);
      let core2 = Serve.Core.create ~workers:2 ~snapshot:path () in
      Fun.protect
        ~finally:(fun () -> ignore (Serve.Core.drain ~grace:1. core2))
        (fun () ->
          (match Serve.Core.snapshot_info core2 with
          | Some (_, n) ->
            Alcotest.(check int) "both replies restored" 2 n
          | None -> Alcotest.fail "no snapshot info on the restarted core");
          List.iter2
            (fun name expect ->
              let got =
                Serve.Core.solve core2 ~options:(opts ()) ~source:(source name)
                |> verdict_of_reply name
              in
              Alcotest.(check (pair string int))
                (name ^ " byte-identical after restart") expect got)
            progs expected;
          (* all replies came from the reloaded cache: no solves ran *)
          match (metric core2 "solves", metric core2 "cache_hits") with
          | Some s, Some h ->
            Alcotest.(check string) "no warm-restart solves" "0" s;
            Alcotest.(check string) "both queries hit" "2" h
          | _ -> Alcotest.fail "missing solves/cache_hits metrics"))

(* --- admission ledger, on an explicit clock --- *)

let test_ledger () =
  let l = Engine.Ledger.create ~window:10. ~allowance:1. () in
  let t0 = 1000. in
  (match Engine.Ledger.admit ~now:t0 l ~client:"a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fresh client refused: " ^ e));
  Engine.Ledger.charge ~now:t0 l ~client:"a" 4.;
  (match Engine.Ledger.admit ~now:t0 l ~client:"a" with
  | Ok () -> Alcotest.fail "client over allowance admitted"
  | Error e ->
    Alcotest.(check bool) "shed reason names the client" true
      (contains ~sub:{|client "a"|} e));
  (* an unrelated client is unaffected *)
  (match Engine.Ledger.admit ~now:t0 l ~client:"b" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unrelated client shed");
  (* one half-life halves the debt; three decay 4s under the 1s bar *)
  Alcotest.(check (float 1e-9)) "debt decays by half-lives" 2.
    (Engine.Ledger.debt ~now:(t0 +. 10.) l ~client:"a");
  (match Engine.Ledger.admit ~now:(t0 +. 10.) l ~client:"a" with
  | Ok () -> Alcotest.fail "still over allowance after one half-life"
  | Error _ -> ());
  match Engine.Ledger.admit ~now:(t0 +. 30.) l ~client:"a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("debt did not decay under allowance: " ^ e)

(* --- metered accounting --- *)

let test_metered () =
  let r, u =
    Engine.metered (fun () ->
        for _ = 1 to 7 do
          Engine.tick ()
        done;
        "done")
  in
  (match r with
  | Ok s -> Alcotest.(check string) "metered result" "done" s
  | Error _ -> Alcotest.fail "metered installed a limit");
  Alcotest.(check int) "steps counted" 7 u.Engine.steps;
  Alcotest.(check bool) "wall clock non-negative" true (u.Engine.wall_s >= 0.);
  (* a nested exhausted budget degrades locally; the meter still counts *)
  let r2, u2 =
    Engine.metered (fun () ->
        Engine.with_budget
          (Engine.budget ~max_steps:3 ())
          (fun () ->
            for _ = 1 to 100 do
              Engine.tick ()
            done))
  in
  (match r2 with
  | Ok (Error reason) ->
    Alcotest.(check string) "inner budget exhausted" "solver-step"
      (Engine.resource_name reason.Engine.resource)
  | Ok (Ok ()) -> Alcotest.fail "inner budget did not bite"
  | Error _ -> Alcotest.fail "inner exhaustion escaped the meter");
  Alcotest.(check bool) "nested extent charged back" true (u2.Engine.steps >= 3)

(* --- retry policy: pure backoff math and the ledger's hint --- *)

let test_backoff_delay () =
  let r = { Serve_client.default_retry with base = 0.1; cap = 1.0; seed = 7 } in
  (* deterministic: same (seed, attempt) -> same delay *)
  List.iter
    (fun attempt ->
      let d1 = Serve_client.backoff_delay r ~attempt ~hint:None in
      let d2 = Serve_client.backoff_delay r ~attempt ~hint:None in
      Alcotest.(check (float 0.)) "deterministic jitter" d1 d2;
      (* jitter scales base*2^attempt by [0.5, 1.0), capped *)
      let nominal = r.Serve_client.base *. (2. ** float_of_int attempt) in
      Alcotest.(check bool) "within the jitter band" true
        (d1 >= Float.min r.Serve_client.cap (0.5 *. nominal)
        && d1 <= r.Serve_client.cap
        && d1 <= nominal))
    [ 0; 1; 2; 3; 8 ];
  (* a server hint overrides the schedule but never the cap *)
  Alcotest.(check (float 0.)) "hint honored" 0.25
    (Serve_client.backoff_delay r ~attempt:0 ~hint:(Some 0.25));
  Alcotest.(check (float 0.)) "hint capped" 1.0
    (Serve_client.backoff_delay r ~attempt:0 ~hint:(Some 30.));
  Alcotest.(check bool) "negative hint falls back clamped" true
    (Serve_client.backoff_delay r ~attempt:0 ~hint:(Some (-1.)) >= 0.)

let test_retry_hint () =
  let l = Engine.Ledger.create ~window:10. ~allowance:1. () in
  let t0 = 2000. in
  Alcotest.(check (float 0.)) "admitted client needs no wait" 0.
    (Engine.Ledger.retry_hint ~now:t0 l ~client:"a");
  Engine.Ledger.charge ~now:t0 l ~client:"a" 4.;
  let h = Engine.Ledger.retry_hint ~now:t0 l ~client:"a" in
  (* debt 4, allowance 1, half-life 10 => exactly two half-lives *)
  Alcotest.(check (float 1e-9)) "hint is the decay time" 20. h;
  (* waiting out the hint admits the client again *)
  (match Engine.Ledger.admit ~now:(t0 +. h) l ~client:"a" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("hint did not clear the debt: " ^ e));
  (* and the overloaded reply carries it onto the wire *)
  let reply = Serve.Overloaded { msg = "m"; retry_after = 0.5 } in
  Alcotest.(check bool) "overloaded reply hints retry-after" true
    (List.mem_assoc "retry-after" (Serve.reply_hints reply));
  Alcotest.(check bool) "verdicts carry no hints" true
    (Serve.reply_hints (Serve.Verdict { code = 0; text = "t" }) = [])

(* --- wire options roundtrip and cache fingerprints --- *)

let test_options_roundtrip () =
  let check_rt name o =
    match Serve.options_of_assoc (Serve.options_to_assoc o) with
    | Ok o' -> Alcotest.(check bool) (name ^ " roundtrips") true (o = o')
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  check_rt "defaults" Serve.default_options;
  check_rt "full"
    {
      Serve.client = "a client name";
      budget =
        Engine.budget ~timeout:1.5 ~max_bdd_nodes:100_000 ~max_states:77
          ~max_steps:12345 ();
      vlevel = Validate.Full;
      inject = Some ("bdd.branch_flip", 3, 5);
    };
  (* A client from before the single decision procedure may still send
     solver=lazy: it takes the unknown-option path, and the daemon
     answers with a typed Bad_request (ERROR, exit 2). *)
  let old_client = [ ("solver", "lazy") ] in
  let unknown = "unknown option \"solver\"" in
  (match Serve.options_of_assoc old_client with
  | Error e -> Alcotest.(check string) "solver is an unknown option" unknown e
  | Ok _ -> Alcotest.fail "solver=lazy was accepted");
  let socket = "test_serve_options.sock" in
  (match Serve_server.start ~socket ~workers:1 () with
  | Error msg -> Alcotest.fail ("server failed to start: " ^ msg)
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> ignore (Serve_server.stop srv))
      (fun () ->
        match Serve_client.connect ~wait:5. socket with
        | Error e -> Alcotest.fail e
        | Ok conn -> (
          let r =
            Serve_client.roundtrip conn
              (Serve_wire.Solve
                 { opts = old_client; source = source "size_counting" })
          in
          Serve_client.close conn;
          match r with
          | Error e -> Alcotest.fail e
          | Ok { Serve_client.status; code; payload; _ } ->
            Alcotest.(check string) "old client status" "ERROR" status;
            Alcotest.(check int) "old client exit code" 2 code;
            Alcotest.(check string) "old client reply" unknown payload)));
  let o = opts () in
  let fp = Serve.fingerprint ~options:o ~source:"Main(n) {}" in
  Alcotest.(check string) "client does not key the cache" fp
    (Serve.fingerprint ~options:{ o with Serve.client = "other" }
       ~source:"Main(n) {}");
  Alcotest.(check bool) "budget keys the cache" true
    (fp
    <> Serve.fingerprint
         ~options:{ o with Serve.budget = Engine.budget ~max_steps:9 () }
         ~source:"Main(n) {}");
  Alcotest.(check bool) "source keys the cache" true
    (fp <> Serve.fingerprint ~options:o ~source:"Main(m) {}")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "pool-sites",
        [ Alcotest.test_case "pool.submit is caught" `Quick test_submit_caught ]
      );
      ("cache", [ qt test_cache_model ]);
      ( "core",
        [
          Alcotest.test_case "byte-identical to batch" `Slow
            test_core_matches_batch;
          Alcotest.test_case "eviction never flips" `Slow
            test_eviction_never_flips;
          Alcotest.test_case "crash isolation under concurrency" `Slow
            test_crash_isolation_concurrent;
        ] );
      ( "durability",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "kill -9 at any offset yields a valid prefix"
            `Quick test_snapshot_kill9_fuzz;
          Alcotest.test_case "injected write/load faults are typed" `Quick
            test_snapshot_write_fault;
          Alcotest.test_case "warm restart is byte-identical" `Slow
            test_core_warm_restart;
        ] );
      ( "admission",
        [
          Alcotest.test_case "ledger decay and shed" `Quick test_ledger;
          Alcotest.test_case "metered accounting" `Quick test_metered;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff delay math" `Quick test_backoff_delay;
          Alcotest.test_case "ledger retry hint" `Quick test_retry_hint;
        ] );
      ("wire", [ Alcotest.test_case "options roundtrip" `Quick test_options_roundtrip ]);
    ]
