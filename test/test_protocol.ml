(* Protocol hardening against a live, in-process server
   (Serve_server.start): a qcheck fuzzer throwing garbage frames,
   oversized length prefixes, truncations and mid-frame hangs at the
   listener — every input must produce a typed protocol error or a
   read-deadline kick, never a crash, a hang, or a wedged acceptor —
   plus the I/O-plane fault campaign: each of the five transport/
   persistence sites, armed over several seeds, is masked or caught
   with zero crashes and zero wrong verdicts. *)

let level = Validate.Witness
let source name = List.assoc name Programs.all_named

let batch_line name =
  let info = Programs.load (source name) in
  Solver_ctx.with_fresh (fun () ->
      let r, _usage =
        Engine.metered (fun () ->
            Validate.check_data_race ~level ~budget:Engine.unlimited info)
      in
      Validate.render_task Analysis.render_race r)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Sockets live in the test's cwd (the dune sandbox): sun_path is capped
   at ~100 bytes, so absolute temp paths are not safe. *)
let with_server ?read_deadline ?snapshot ?snapshot_every name f =
  let socket = name ^ ".sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  match
    Serve_server.start ~socket ~workers:2 ?read_deadline ?snapshot
      ?snapshot_every ~grace:5. ()
  with
  | Error msg -> Alcotest.fail ("server failed to start: " ^ msg)
  | Ok srv ->
    Fun.protect ~finally:(fun () -> ignore (Serve_server.stop srv)) (fun () ->
        f socket)

(* A raw exchange below Serve_wire: write arbitrary bytes, read back
   whatever the server says (bounded by SO_RCVTIMEO), close.  Returns
   the raw response, "" on timeout/EOF.  Raw because the fuzzer needs
   to send bytes Serve_wire would refuse to produce. *)
let raw_connect ?(wait = 5.) socket =
  let deadline = Unix.gettimeofday () +. wait in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Thread.delay 0.05;
      go ()
  in
  go ()

let raw_exchange ?(timeout = 5.) ~socket bytes =
  let fd = raw_connect socket in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
   with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length bytes in
      (try
         if Unix.write_substring fd bytes 0 n <> n then failwith "short write"
       with Unix.Unix_error _ -> ());
      let buf = Bytes.create 65536 in
      let out = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes out buf 0 k;
          drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents out)

(* After any abuse, the server must still answer a clean request with
   the exact batch bytes. *)
let check_alive ~socket what =
  match
    Serve_client.request_with_retry
      ~retry:{ Serve_client.default_retry with retries = 2 }
      ~read_timeout:60. ~socket ~wait:5.
      (Serve_wire.Solve
         {
           opts = Serve.options_to_assoc Serve.default_options;
           source = source "size_counting";
         })
  with
  | Error msg -> Alcotest.fail (what ^ ": server unusable after abuse: " ^ msg)
  | Ok (r, _) ->
    let expect_text, expect_code = batch_line "size_counting" in
    Alcotest.(check string) (what ^ ": status") "REPLY" r.Serve_client.status;
    Alcotest.(check string) (what ^ ": bytes") expect_text r.Serve_client.payload;
    Alcotest.(check int) (what ^ ": code") expect_code r.Serve_client.code

(* --- oversized frames: the 16 MiB cap is a typed error, both ways --- *)

let test_oversized () =
  with_server "proto-big" (fun socket ->
      (* server side: an over-cap length prefix gets the typed error *)
      let resp =
        raw_exchange ~socket
          (Printf.sprintf "SOLVE %d\n" (Serve_wire.max_payload + 1))
      in
      Alcotest.(check bool) "over-cap length is a typed protocol error" true
        (contains ~sub:"ERROR" resp && contains ~sub:"exceeds" resp
        && contains ~sub:"frame cap" resp);
      check_alive ~socket "after oversized header";
      (* client side: an oversized payload is refused before send *)
      (match Serve_client.connect ~wait:5. socket with
      | Error msg -> Alcotest.fail msg
      | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Serve_client.close conn)
          (fun () ->
            let huge = String.make (Serve_wire.max_payload + 1) 'x' in
            match
              Serve_client.roundtrip conn
                (Serve_wire.Solve { opts = []; source = huge })
            with
            | Error msg ->
              Alcotest.(check bool) "refused locally, typed" true
                (contains ~sub:"frame cap" msg && contains ~sub:"not sent" msg)
            | Ok _ -> Alcotest.fail "oversized payload was sent and replied"));
      (* a length that is not even a number *)
      let resp = raw_exchange ~socket "SOLVE 99999999999999999999\n" in
      Alcotest.(check bool) "unparsable length is typed" true
        (contains ~sub:"ERROR" resp))

(* --- read deadline: a stalling client cannot hold a handler slot --- *)

let test_read_deadline () =
  with_server ~read_deadline:0.5 "proto-stall" (fun socket ->
      (* mid-frame hang: promise 100 payload bytes, send 10, go silent *)
      let t0 = Unix.gettimeofday () in
      let resp = raw_exchange ~timeout:10. ~socket "SOLVE 100\n0123456789" in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "stall is kicked with a typed error" true
        (contains ~sub:"read deadline exceeded" resp);
      Alcotest.(check bool) "kick happens at the deadline, not never" true
        (dt < 8.);
      (* silent idle connection: same kick *)
      let resp = raw_exchange ~timeout:10. ~socket "" in
      Alcotest.(check bool) "idle connection is kicked too" true
        (contains ~sub:"read deadline exceeded" resp);
      check_alive ~socket "after stalls")

(* --- garbage fuzz: arbitrary bytes never crash/hang/wedge --- *)

let frame_gen =
  QCheck2.Gen.(
    oneof
      [
        (* pure garbage: arbitrary chars, newline or not *)
        string_size (int_range 0 200);
        (* garbage line: at least parses as a request line *)
        map (fun s -> s ^ "\n") (string_size ~gen:printable (int_range 0 80));
        (* SOLVE with a lying length: larger than the bytes that follow *)
        map2
          (fun n body ->
            Printf.sprintf "SOLVE %d\n%s" (abs n + String.length body + 1) body)
          small_int
          (string_size (int_range 0 50));
        (* SOLVE with bad option tokens *)
        map
          (fun tok -> Printf.sprintf "SOLVE 0 %s\n" tok)
          (string_size ~gen:printable (int_range 1 30));
        (* negative / hex / huge lengths *)
        oneofl
          [
            "SOLVE -1\n"; "SOLVE 0x10\n"; "SOLVE 184467440737095516\n";
            "SOLVE \n"; "PING extra\n"; "METRICS 1\n"; "\n"; "\x00\x01\x02\n";
          ];
      ])

let test_fuzz () =
  with_server ~read_deadline:1. "proto-fuzz" (fun socket ->
      let gen = QCheck2.Gen.list_size (QCheck2.Gen.return 40) frame_gen in
      let frames = QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |]) gen in
      List.iter
        (fun frame ->
          (* every response, if any, is a typed protocol error or a
             clean close — raw_exchange itself is bounded by its
             timeout, so a hang would fail the test by wall clock *)
          let resp = raw_exchange ~timeout:6. ~socket frame in
          if resp <> "" then
            Alcotest.(check bool)
              (Printf.sprintf "typed response to %S" frame)
              true
              (contains ~sub:"ERROR" resp || contains ~sub:"PONG" resp
              || contains ~sub:"METRICS" resp || contains ~sub:"REPLY" resp))
        frames;
      check_alive ~socket "after fuzz")

(* --- the I/O-plane fault campaign: 5 sites x 3 seeds ---

   Everything runs in one process, so arming a site covers both the
   client's wire calls and the server's accept/handler threads (same
   domain); the worker domains that do the solving are untouched.  The
   discipline: every armed exchange ends in a correct reply (masked) or
   a typed error string (caught) — no exceptions, no hangs, and any
   verdict that does come back carries exactly the batch bytes. *)

let io_sites =
  [ "wire.read"; "wire.write"; "snapshot.write"; "snapshot.load"; "accept" ]

let test_io_campaign () =
  let snapshot = "campaign.snap" in
  (try Sys.remove snapshot with Sys_error _ -> ());
  with_server ~read_deadline:2. ~snapshot ~snapshot_every:1 "proto-campaign"
    (fun socket ->
      let expect_text, expect_code = batch_line "size_counting" in
      let masked = ref 0 and caught = ref 0 in
      List.iter
        (fun site ->
          List.iter
            (fun seed ->
              Alcotest.(check bool)
                (site ^ " is classified I/O-plane") true
                (Serve.io_plane_site site);
              Faults.arm ~site ~seed ~period:3 ();
              let r =
                Fun.protect ~finally:Faults.disarm (fun () ->
                    Serve_client.request_with_retry
                      ~retry:
                        {
                          Serve_client.default_retry with
                          retries = 4;
                          base = 0.01;
                          seed;
                        }
                      ~read_timeout:10. ~socket ~wait:5.
                      (Serve_wire.Solve
                         {
                           opts =
                             Serve.options_to_assoc Serve.default_options;
                           source = source "size_counting";
                         }))
              in
              (match r with
              | Ok (reply, _) when reply.Serve_client.status = "REPLY" ->
                (* masked: the fault cost retries, never bytes *)
                incr masked;
                Alcotest.(check string)
                  (Printf.sprintf "%s:%d masked bytes" site seed)
                  expect_text reply.Serve_client.payload;
                Alcotest.(check int)
                  (Printf.sprintf "%s:%d masked code" site seed)
                  expect_code reply.Serve_client.code
              | Ok (reply, _) when reply.Serve_client.status = "ERROR" ->
                (* caught server-side: e.g. an injected wire.read tear
                   surfaces as the typed truncated-payload error *)
                incr caught;
                Alcotest.(check bool)
                  (Printf.sprintf "%s:%d typed server error" site seed)
                  true
                  (String.length reply.Serve_client.payload > 0)
              | Ok (reply, _) ->
                Alcotest.fail
                  (Printf.sprintf "%s:%d returned status %s" site seed
                     reply.Serve_client.status)
              | Error msg ->
                (* caught: a typed, printable error string *)
                incr caught;
                Alcotest.(check bool)
                  (Printf.sprintf "%s:%d caught error is non-empty" site seed)
                  true
                  (String.length msg > 0));
              (* the server survived the armed exchange *)
              check_alive ~socket (Printf.sprintf "%s:%d" site seed))
            [ 1; 2; 3 ])
        io_sites;
      Fmt.pr "campaign: %d masked, %d caught over %d armed exchanges@."
        !masked !caught
        (List.length io_sites * 3);
      (* per-query solve options must keep refusing these sites *)
      match
        Serve_client.request_with_retry ~retry:Serve_client.default_retry
          ~read_timeout:10. ~socket ~wait:5.
          (Serve_wire.Solve
             {
               opts =
                 Serve.options_to_assoc
                   {
                     Serve.default_options with
                     Serve.inject = Some ("wire.read", 1, 1);
                   };
               source = source "size_counting";
             })
      with
      | Ok (reply, _) ->
        Alcotest.(check string) "io-plane site refused as solve option"
          "ERROR" reply.Serve_client.status;
        Alcotest.(check bool) "refusal names the plane" true
          (contains ~sub:"I/O plane" reply.Serve_client.payload)
      | Error msg -> Alcotest.fail ("refusal check failed: " ^ msg));
  try Sys.remove snapshot with Sys_error _ -> ()

(* --- a torn exchange recovers by retry ---

   [wire.read] armed per attempt the way [retreet ask --inject] arms it:
   attempt [a] re-arms with seed [seed + a].  Each attempt hits the site
   twice, in a fixed order (the server reads the request, then the client
   reads the reply), so the schedule is deterministic: at period 5, seed
   28 tears the first reply read and spares both reads of the second
   attempt, which must bring back the batch bytes. *)
let test_retry_recovers () =
  with_server "proto-retry" (fun socket ->
      let seed = 28 in
      match
        Serve_client.request_with_retry
          ~arm:(fun attempt ->
            Faults.arm ~period:5 ~site:"wire.read" ~seed:(seed + attempt) ())
          ~retry:
            { Serve_client.default_retry with retries = 4; base = 0.01; seed }
          ~read_timeout:10. ~socket ~wait:5.
          (Serve_wire.Solve
             {
               opts = Serve.options_to_assoc Serve.default_options;
               source = source "size_counting";
             })
      with
      | Error msg -> Alcotest.fail ("the retry did not recover: " ^ msg)
      | Ok (reply, stats) ->
        Alcotest.(check int) "attempts" 2 stats.Serve_client.attempts;
        Alcotest.(check (triple string string int))
          "batch bytes after the retry"
          (let text, code = batch_line "size_counting" in
           ("REPLY", text, code))
          ( reply.Serve_client.status,
            reply.Serve_client.payload,
            reply.Serve_client.code ))

let () =
  Alcotest.run "protocol"
    [
      ( "hardening",
        [
          Alcotest.test_case "oversized frames are typed errors" `Quick
            test_oversized;
          Alcotest.test_case "read deadline kicks stalls" `Quick
            test_read_deadline;
          Alcotest.test_case "garbage frames never wedge the server" `Slow
            test_fuzz;
        ] );
      ( "io-campaign",
        [
          Alcotest.test_case "5 sites x 3 seeds: masked or caught" `Slow
            test_io_campaign;
          Alcotest.test_case "a torn reply recovers by retry" `Quick
            test_retry_recovers;
        ] );
    ]
