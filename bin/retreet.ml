(** The [retreet] command-line tool: parse and check Retreet programs,
    verify data-race freedom and transformation correctness, run programs
    on concrete trees, apply transformations, compare against the coarse
    baseline analysis, and export queries in MONA syntax. *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log query progress.")

(* The exit-code contract (also rendered under EXIT STATUS in --help):
   0 = proof, 1 = counterexample/refutation, 2 = usage/parse/wf error,
   3 = unknown (budget exhausted), 4 = verdict failed self-validation. *)
let exit_unknown = 3

let exits =
  Cmd.Exit.info 0 ~doc:"the query was decided: the property HOLDS (proof)."
  :: Cmd.Exit.info 1
       ~doc:
         "the query was decided: a COUNTEREXAMPLE or refutation was found."
  :: Cmd.Exit.info 2
       ~doc:"usage error, or the program failed to parse or is ill-formed."
  :: Cmd.Exit.info exit_unknown
       ~doc:
         "UNKNOWN: the resource budget was exhausted before a verdict \
          (see $(b,--timeout), $(b,--max-nodes), $(b,--max-states), \
          $(b,--max-steps))."
  :: Cmd.Exit.info 4
       ~doc:
         "the VERDICT FAILED SELF-VALIDATION: an independent oracle \
          (counterexample replay, structural invariants, or differential \
          testing, see $(b,--validate)) contradicts the printed verdict."
  :: List.filter
       (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok)
       Cmd.Exit.defaults

(* Sources: either a file or one of the built-in case-study programs
   (prefix "builtin:").  [builtin_source] is [None] for a file path and
   exits 2 on an unknown builtin name. *)
let builtin_source (path : string) : string option =
  if String.length path > 8 && String.sub path 0 8 = "builtin:" then begin
    let name = String.sub path 8 (String.length path - 8) in
    match List.assoc_opt name Programs.all_named with
    | Some src -> Some src
    | None ->
      Fmt.epr "unknown builtin %s; available:@.@[<v 2>  %a@]@." name
        Fmt.(list ~sep:cut string)
        (List.map fst Programs.all_named);
      exit 2
  end
  else None

let load_source (path : string) : Blocks.t =
  match builtin_source path with
  | Some src -> Programs.load src
  | None -> (
    match Parser.parse_file path with
    | prog -> (
      match Wf.check prog with
      | Ok info -> info
      | Error es ->
        Fmt.epr "%s: ill-formed Retreet program:@.%a@." path
          Fmt.(list ~sep:cut string)
          es;
        exit 2)
    | exception Lexer.Error msg | exception Parser.Error msg ->
      Fmt.epr "%s@." msg;
      exit 2
    | exception Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2)

let file_arg n doc = Arg.(required & pos n (some string) None & info [] ~doc)

(* Budget flags, shared by the solver-backed commands. *)
let budget_term =
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the whole query.  On exhaustion the \
             verdict is UNKNOWN (exit 3) with the pairs discharged so far.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"BDD/MTBDD node-allocation cap per solver attempt.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Automaton-state cap per construction.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Abstract solver-step cap per attempt (deterministic, unlike \
             $(b,--timeout)).")
  in
  let mk timeout max_bdd_nodes max_states max_steps =
    Engine.budget ?timeout ?max_bdd_nodes ?max_states ?max_steps ()
  in
  Term.(const mk $ timeout $ max_nodes $ max_states $ max_steps)

(* Self-validation flags, shared by race and equiv. *)
let validate_arg =
  Arg.(
    value
    & opt (enum Validate.level_enum) Validate.Witness
    & info [ "validate" ] ~docv:"LEVEL"
        ~doc:
          "Verdict self-validation level: $(b,off), $(b,witness) \
           (replay counterexamples concretely; the default), \
           $(b,invariants) (also check structural invariants of every \
           constructed automaton and of the BDD stores), or $(b,full) \
           (also differentially test positive verdicts on small concrete \
           trees).  A failed check exits 4 without changing the printed \
           verdict.")

(* Fault-site lists for --help, rendered from the registry so the docs
   can never drift from the code ([Faults.list_sites] is the single
   source of truth for every site listing). *)
let sites_doc plane =
  String.concat ", "
    (List.filter_map
       (fun (name, _, p) ->
         if p = plane then Some (Printf.sprintf "$(b,%s)" name) else None)
       (Faults.list_sites ()))

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SITE:SEED[:PERIOD]"
        ~doc:
          (Printf.sprintf
             "Testing only: arm the named fault-injection site with the \
              given seed (and firing period) before solving, e.g. \
              $(b,--inject bdd.branch_flip:7).  Solver-plane sites \
              (re-armed per query): %s.  Use $(b,--inject list) for \
              descriptions."
             (sites_doc Faults.Solver)))

(* Parse an --inject spec ([Faults.parse_spec]) and check its site
   against the registry, without arming: the single-query commands arm
   once up front; [batch] re-arms per query (on whichever domain runs
   it) so every query sees the same fault hit sequence it would see in
   its own process.  "list" and malformed specs exit immediately. *)
let parse_inject = function
  | None -> None
  | Some "list" ->
    List.iter
      (fun (name, descr, plane) ->
        Fmt.pr "%-24s [%-6s] %s@." name (Faults.plane_name plane) descr)
      (Faults.list_sites ());
    exit 0
  | Some spec -> (
    match Faults.parse_spec spec with
    | Ok ((site, _, _) as t) when Faults.site_plane site <> None -> Some t
    | _ ->
      Fmt.epr "bad --inject spec %S (expected SITE:SEED[:PERIOD]); \
               registered sites:@.@[<v 2>  %a@]@."
        spec
        Fmt.(list ~sep:cut string)
        (List.map (fun (n, _, _) -> n) (Faults.list_sites ()));
      exit 2)

(* Shared epilogue of [race] and [equiv]: the verdict line (the line
   [batch] and the daemon print), then the counterexample, if any, with
   the outcome of its [replay] check, then the validation report when a
   check failed (exit 4) or -v asks for it. *)
let print_validated verbose report (text, code) counterexample =
  Fmt.pr "%s@." text;
  Option.iter
    (fun (pp_cx, replay) ->
      Fmt.pr "%t@." pp_cx;
      match
        List.find_opt
          (fun (c : Validate.check) -> c.name = replay)
          report.Validate.checks
      with
      | Some { Validate.status = Validate.Passed; _ } ->
        Fmt.pr "counterexample confirmed by replay.@."
      | Some { Validate.status = Validate.Failed _; _ } ->
        Fmt.pr
          "WARNING: concrete replay does NOT confirm this counterexample.@."
      | _ -> ())
    counterexample;
  if not (Validate.ok report) then begin
    Fmt.pr "%a@." Validate.pp_report report;
    Fmt.pr
      "WARNING: the verdict above FAILED self-validation; do not trust it.@."
  end
  else if verbose then Fmt.pr "%a@." Validate.pp_report report;
  code

(* --- check --- *)

let check_cmd =
  let run verbose file =
    setup_logs verbose;
    let info = load_source file in
    Fmt.pr "%d functions, %d blocks, %d conditions@."
      (List.length info.prog.funcs)
      (Blocks.nblocks info)
      (Array.length info.conds);
    List.iter
      (fun (b : Blocks.block_info) ->
        Fmt.pr "  %-8s %-16s %s  [%a]@." b.label b.bfunc
          (match b.block with Ast.Call _ -> "call" | Ast.Straight _ -> "block")
          Fmt.(
            list ~sep:(any " ")
              (fun ppf (c, pol) ->
                Fmt.pf ppf "%sc%d" (if pol then "" else "!") c))
          b.guards)
      (Blocks.all_blocks info);
    Fmt.pr "well-formed.@.";
    0
  in
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:"Parse a program and report its block structure.")
    Term.(const run $ verbose_arg $ file_arg 0 "Program file or builtin:NAME.")

(* --- race --- *)

let race_cmd =
  let run verbose budget vlevel inject file =
    setup_logs verbose;
    Faults.with_armed (parse_inject inject) @@ fun () ->
    let info = load_source file in
    let result, report = Validate.check_data_race ~level:vlevel ~budget info in
    print_validated verbose report
      (Validate.render Analysis.render_race (result, report))
      (match result with
      | Analysis.Race cx ->
        Some ((fun ppf -> Analysis.pp_counterexample info ppf cx),
              "race.replay")
      | _ -> None)
  in
  Cmd.v
    (Cmd.info "race" ~exits
       ~doc:"Check data-race freedom (the paper's DataRace query).")
    Term.(
      const run $ verbose_arg $ budget_term $ validate_arg $ inject_arg
      $ file_arg 0 "Program file or builtin:NAME.")

(* --- batch --- *)

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the batch ($(b,0) counts as 1).  Each query \
           runs on cold solver state, so the output is byte-identical for \
           every $(b,-j).")

let batch_cmd =
  let run verbose jobs budget vlevel inject files =
    setup_logs verbose;
    let inject = parse_inject inject in
    if files = [] then begin
      (* An empty batch decided nothing: report where the files were
         expected and exit 3 (unknown), not 0 — harnesses that glob
         their inputs must not mistake "matched nothing" for "all
         proofs passed". *)
      Fmt.epr
        "retreet: batch: no FILE arguments (expected one or more program \
         files or builtin:NAMEs at positions 0..); nothing was solved@.";
      exit exit_unknown
    end;
    (* Parse everything up front on the main domain: a parse or
       well-formedness error is a usage error (exit 2) for the whole
       batch, before any query runs. *)
    let infos = List.map (fun f -> (f, load_source f)) files in
    let tasks =
      List.map
        (fun (_, info) task_budget ->
          (* re-armed per query, on the domain that runs it, so every
             query sees the hit sequence it would see alone *)
          Faults.with_armed inject (fun () ->
              Validate.check_data_race ~level:vlevel ~budget:task_budget info))
        infos
    in
    let results = Pool.run_batch ~jobs ~budget tasks in
    Validate.worst_code
      (List.map2
         (fun (file, _) result ->
           (* the rendering the serve daemon uses: byte identity between
              `retreet batch` and serve-mode replies *)
           let text, code = Validate.render_task Analysis.render_race result in
           Fmt.pr "%s: %s@." file text;
           code)
         infos results)
  in
  Cmd.v
    (Cmd.info "batch" ~exits
       ~doc:
         "Run the data-race query on many programs, optionally on \
          parallel worker domains ($(b,-j)).  Prints one line per \
          program, in argument order, and exits with the most severe \
          per-program code.")
    Term.(
      const run $ verbose_arg $ jobs_arg $ budget_term $ validate_arg
      $ inject_arg
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"FILE" ~doc:"Program files or builtin:NAMEs."))

(* --- serve / ask --- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path the daemon listens on (keep it short: \
           the kernel caps socket paths at ~100 bytes).")

let serve_cmd =
  let run verbose socket workers max_queue cache_nodes allowance window
      grace read_deadline snapshot snapshot_every inject =
    setup_logs verbose;
    (* armed on the server process for its whole lifetime: the I/O-plane
       sites (wire.*, snapshot.*, accept) fire on the accept/handler
       threads, never inside a worker's solve *)
    let inject = parse_inject inject in
    Serve_server.run ~socket ~workers ~max_queue ~cache_nodes ~allowance
      ~window ~grace ~read_deadline ?snapshot ~snapshot_every ?inject ()
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the solver as a supervised daemon on a Unix socket.  \
          Queries are scheduled onto worker domains; a crashed worker is \
          restarted with bounded backoff and its query retried once \
          before degrading to a typed SERVER-UNKNOWN reply, so the \
          daemon itself never dies.  Admission control sheds load per \
          client (OVERLOADED), a content-hash reply cache under a node \
          budget carries warm state across queries without changing a \
          byte of output, and SIGTERM drains gracefully (exit 0).")
    Term.(
      const run $ verbose_arg $ socket_arg
      $ Arg.(
          value & opt int 2
          & info [ "workers" ] ~docv:"N" ~doc:"Solver worker domains.")
      $ Arg.(
          value & opt int 64
          & info [ "max-queue" ] ~docv:"N"
              ~doc:"Queued-query depth before shedding with OVERLOADED.")
      $ Arg.(
          value
          & opt int 1_000_000
          & info [ "cache-nodes" ] ~docv:"N"
              ~doc:
                "Reply-cache capacity, in BDD nodes allocated by the \
                 cached solves (0 disables caching).")
      $ Arg.(
          value & opt float 30.
          & info [ "allowance" ] ~docv:"SECONDS"
              ~doc:
                "Per-client solving allowance: a client whose \
                 exponentially-decayed spend exceeds this is shed with \
                 OVERLOADED.")
      $ Arg.(
          value & opt float 60.
          & info [ "window" ] ~docv:"SECONDS"
              ~doc:"Half-life of the per-client spend decay.")
      $ Arg.(
          value & opt float 5.
          & info [ "grace" ] ~docv:"SECONDS"
              ~doc:"Drain deadline for in-flight queries on SIGTERM.")
      $ Arg.(
          value & opt float 30.
          & info [ "read-deadline" ] ~docv:"SECONDS"
              ~doc:
                "Per-connection read deadline: a client silent this long \
                 (mid-frame or between requests) is kicked with a typed \
                 error so it cannot hold a handler slot.  0 disables.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "snapshot" ] ~docv:"PATH"
              ~doc:
                "Durable reply-cache snapshot file: loaded (tolerating \
                 corrupt suffixes) on startup, rewritten atomically every \
                 $(b,--snapshot-every) queries and on drain, so a restart \
                 keeps the cache warm and kill -9 never yields a wrong or \
                 torn reply.")
      $ Arg.(
          value & opt int 64
          & info [ "snapshot-every" ] ~docv:"N"
              ~doc:
                "Solved queries between periodic snapshot saves (0: only \
                 on drain).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "inject" ] ~docv:"SITE:SEED[:PERIOD]"
              ~doc:
                (Printf.sprintf
                   "Testing only: arm a fault site on the server process \
                    for its whole lifetime — the way to exercise the \
                    I/O-plane sites (%s), which fire on the \
                    accept/handler threads and which solve-time options \
                    refuse.  $(b,--inject list) lists every registered \
                    site."
                   (sites_doc Faults.Io))))

let ask_cmd =
  let run verbose socket wait client budget vlevel inject metrics
      retries backoff read_timeout files =
    setup_logs verbose;
    (* a server killed mid-request must surface as EPIPE -> typed error
       -> retry, not kill this client with SIGPIPE *)
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    let inject = parse_inject inject in
    (* split the spec by plane: wire.* faults are armed locally, per
       attempt, with the attempt index folded into the seed (each
       attempt reproducible alone, retries exploring fresh positions);
       solver-plane sites ship to the daemon as a per-query option *)
    let local_inject, remote_inject =
      match inject with
      | Some (site, _, _) when Serve.io_plane_site site -> (inject, None)
      | _ -> (None, inject)
    in
    let arm =
      Option.map
        (fun (site, seed, period) attempt ->
          Faults.arm ~period ~site ~seed:(seed + attempt) ())
        local_inject
    in
    let retry =
      { Serve_client.default_retry with retries = max 0 retries;
        base = backoff }
    in
    let read_timeout = if read_timeout > 0. then Some read_timeout else None in
    let request req =
      Serve_client.request_with_retry ?arm ?read_timeout ~retry ~socket
        ~wait req
    in
    if (not metrics) && files = [] then begin
      Fmt.epr
        "retreet: ask: no FILE arguments (expected one or more program \
         files or builtin:NAMEs at positions 0..); nothing was solved@.";
      exit exit_unknown
    end;
    let roundtrip req =
      match request req with
      | Ok (reply, _) -> reply
      | Error msg ->
        Fmt.epr "retreet ask: %s@." msg;
        exit 2
    in
    if metrics then begin
      let reply = roundtrip Serve_wire.Metrics in
      Fmt.pr "%s" reply.Serve_client.payload;
      Format.pp_print_flush Fmt.stdout ();
      0
    end
    else begin
      let source_of path =
        match builtin_source path with
        | Some src -> src
        | None -> (
          match In_channel.with_open_bin path In_channel.input_all with
          | source -> source
          | exception Sys_error msg ->
            Fmt.epr "%s@." msg;
            exit 2)
      in
      let opts =
        Serve.options_to_assoc
          { Serve.client; budget; vlevel; inject = remote_inject }
      in
      Validate.worst_code
        (List.map
           (fun file ->
             let source = source_of file in
             let reply = roundtrip (Serve_wire.Solve { opts; source }) in
             let payload = reply.Serve_client.payload in
             match reply.Serve_client.status with
             | "REPLY" ->
               Fmt.pr "%s: %s@." file payload;
               reply.Serve_client.code
             | "ERROR" ->
               Fmt.epr "%s: %s@." file payload;
               2
             | _ ->
               (* OVERLOADED (retries exhausted) / SERVER-UNKNOWN /
                  DRAINING: unknown-shaped *)
               Fmt.pr "%s: %s@." file payload;
               exit_unknown)
           files)
    end
  in
  Cmd.v
    (Cmd.info "ask" ~exits
       ~doc:
         "Send data-race queries to a running $(b,retreet serve) daemon.  \
          Prints one line per program, exactly as $(b,retreet batch) \
          would, and exits with the most severe per-program code \
          (OVERLOADED, SERVER-UNKNOWN and DRAINING replies count as \
          unknown, exit 3).")
    Term.(
      const run $ verbose_arg $ socket_arg
      $ Arg.(
          value & opt float 10.
          & info [ "wait" ] ~docv:"SECONDS"
              ~doc:"Retry the connection this long if the daemon is not \
                    yet listening.")
      $ Arg.(
          value & opt string "cli"
          & info [ "client" ] ~docv:"NAME"
              ~doc:"Client identity for the daemon's admission control.")
      $ budget_term $ validate_arg $ inject_arg
      $ Arg.(
          value & flag
          & info [ "metrics" ]
              ~doc:"Print the daemon's metrics report instead of solving.")
      $ Arg.(
          value & opt int 2
          & info [ "retries" ] ~docv:"N"
              ~doc:
                "Extra attempts after a connect failure, a torn exchange, \
                 a read-timeout expiry, or an OVERLOADED reply.  Each \
                 attempt reconnects fresh; the wait between attempts is a \
                 bounded exponential backoff with deterministic jitter, \
                 or the server's retry-after hint when it sent one.  0 \
                 disables retrying.")
      $ Arg.(
          value & opt float 0.05
          & info [ "backoff" ] ~docv:"SECONDS"
              ~doc:"Base delay of the retry backoff (doubles per attempt, \
                    capped at 2s).")
      $ Arg.(
          value & opt float 0.
          & info [ "read-timeout" ] ~docv:"SECONDS"
              ~doc:
                "Fail an attempt whose reply stalls this long (0, the \
                 default, waits forever: solves can legitimately run for \
                 minutes).")
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"FILE" ~doc:"Program files or builtin:NAMEs."))

(* --- equiv --- *)

let map_arg =
  Arg.(
    value
    & opt (list ~sep:',' (pair ~sep:'=' string string)) []
    & info [ "map" ]
        ~doc:
          "Non-call block correspondence, e.g. s0=fnil,s3=fret.  May be \
           multivalued (repeat a source label).")

let equiv_cmd =
  let run verbose budget vlevel inject f1 f2 map =
    setup_logs verbose;
    Faults.with_armed (parse_inject inject) @@ fun () ->
    let p = load_source f1 and p' = load_source f2 in
    let result, report =
      Validate.check_equivalence ~level:vlevel ~budget p p' ~map
    in
    print_validated verbose report
      (Validate.render Analysis.render_equiv (result, report))
      (match result with
      | Analysis.Not_equivalent cx ->
        Some ((fun ppf -> Analysis.pp_counterexample p ppf cx),
              "equiv.replay")
      | _ -> None)
  in
  Cmd.v
    (Cmd.info "equiv" ~exits
       ~doc:
         "Check that two programs are equivalent (the paper's Conflict \
          query over a bisimulation).")
    Term.(
      const run $ verbose_arg $ budget_term $ validate_arg $ inject_arg
      $ file_arg 0 "Original program."
      $ file_arg 1 "Transformed program."
      $ map_arg)

(* --- run --- *)

let tree_arg =
  Arg.(
    value
    & opt string "complete:3"
    & info [ "tree" ]
        ~doc:"Input tree: complete:H or random:SIZE[:SEED].")

let int_args =
  Arg.(
    value
    & opt (list int) []
    & info [ "args" ] ~doc:"Int arguments for Main.")

let build_tree spec =
  let nat s =
    match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None
  in
  let random size seed =
    Option.map
      (fun size -> Heap.random ~size (Random.State.make [| seed |]))
      (nat size)
  in
  let tree =
    match String.split_on_char ':' spec with
    | [ "complete"; h ] ->
      Option.map
        (fun height -> Heap.complete_tree ~height ~init:(fun _ -> []))
        (nat h)
    | [ "random"; size ] -> random size 42
    | [ "random"; size; seed ] ->
      Option.bind (int_of_string_opt seed) (random size)
    | _ -> None
  in
  match tree with
  | Some t -> t
  | None ->
    Fmt.epr "bad tree spec %S@." spec;
    exit 2

let run_cmd =
  let run verbose file tree args =
    setup_logs verbose;
    let info = load_source file in
    let heap = build_tree tree in
    match Interp.run info heap args with
    | exception Interp.Runtime_error msg ->
      (* e.g. --args of the wrong arity: a usage error, like a bad --tree *)
      Fmt.epr "runtime error: %s@." msg;
      2
    | { Interp.returns; events } ->
      Fmt.pr "returned: %a@." Fmt.(Dump.list int) returns;
      Fmt.pr "%d iterations@." (List.length events);
      Fmt.pr "final heap: %a@." Heap.pp heap;
      let races = Interp.races info events in
      if races <> [] then
        Fmt.pr "dynamic races observed: %d (first on %a)@."
          (List.length races) Interp.pp_loc (List.hd races).race_loc;
      0
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Interpret a program on a concrete tree.")
    Term.(
      const run $ verbose_arg
      $ file_arg 0 "Program file or builtin:NAME."
      $ tree_arg $ int_args)

(* --- fuse --- *)

let fuse_cmd =
  let run verbose file traversals =
    setup_logs verbose;
    let info = load_source file in
    match Transform.fuse info.prog traversals with
    | Error e ->
      Fmt.epr "cannot fuse: %s@." e;
      1
    | Ok (prog', map) ->
      Fmt.pr "%s@.// block map: %a@." (Pretty.print_prog prog')
        Fmt.(
          list ~sep:(any ", ")
            (fun ppf (a, b) -> Fmt.pf ppf "%s=%s" a b))
        map;
      0
  in
  Cmd.v
    (Cmd.info "fuse" ~exits
       ~doc:"Fuse post-order traversals into one; prints the fused program \
             and the block map for $(b,equiv).")
    Term.(
      const run $ verbose_arg
      $ file_arg 0 "Program file or builtin:NAME."
      $ Arg.(
          value
          & opt (list string) []
          & info [ "traversals" ] ~doc:"Traversals to fuse, in order."))

(* --- gen --- *)

let gen_cmd =
  let run verbose seed count out check jobs serve_sample budget vlevel inject =
    setup_logs verbose;
    let inject = parse_inject inject in
    if out = None && not check then begin
      (* Mirrors the empty-batch contract: nothing was generated or
         solved, which harnesses must not mistake for a clean campaign. *)
      Fmt.epr
        "retreet: gen: nothing to do (pass --out DIR to write a corpus, \
         --check to run the ground-truth campaign, or both)@.";
      exit exit_unknown
    end;
    let scenarios = Factory.sample ~seed ~count in
    Option.iter
      (fun dir ->
        (match Corpus.prepare_out_dir dir with
        | Ok () -> ()
        | Error msg ->
          Fmt.epr "retreet: gen: %s@." msg;
          exit 2);
        let files = Corpus.write_corpus ~dir scenarios in
        Fmt.pr "gen: seed %d: wrote %d scenarios (%d files) to %s@." seed
          count (List.length files) dir)
      out;
    if not check then 0
    else begin
      (* an unbounded campaign can wedge on a sabotaged query; default to
         the corpus budget unless the user capped something explicitly *)
      let budget =
        if Engine.is_unlimited budget then Corpus.default_budget else budget
      in
      let cfg =
        { Corpus.jobs; budget; vlevel; inject; serve_sample }
      in
      let summary = Corpus.run_campaign cfg scenarios in
      Fmt.pr "%a@." Corpus.pp_summary summary;
      match summary.Corpus.disagreements with
      | [] -> 0
      | worst :: _ ->
        (* fail loudly, and leave a minimal reproducer behind *)
        let minimal = Corpus.shrink cfg worst in
        let dir = Option.value out ~default:"." in
        let path = Corpus.write_repro ~dir minimal in
        Fmt.pr "wrote minimal reproducer to %s@." path;
        1
    end
  in
  Cmd.v
    (Cmd.info "gen" ~exits
       ~doc:
         "Generate a ground-truth corpus of random traversal scenarios \
          (racy/race-free parallel pairs, valid/broken fusions over \
          synthetic and CSS-derived trees) and optionally verify every \
          solver verdict against the constructed truth.  Any disagreement \
          exits 1 and writes a shrunk $(b,.retreet) reproducer.")
    Term.(
      const run $ verbose_arg
      $ Arg.(
          value & opt int 0
          & info [ "seed" ] ~docv:"N"
              ~doc:
                "PRNG seed.  The same seed yields a byte-identical corpus \
                 on every machine.")
      $ Arg.(
          value & opt int 8
          & info [ "count" ] ~docv:"K" ~doc:"Number of scenarios to sample.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"DIR"
              ~doc:
                "Write the corpus ($(b,.retreet) programs, fused siblings, \
                 block maps, CSS provenance, MANIFEST.tsv) to this \
                 directory.")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Run the ground-truth campaign: every scenario through the \
                 batch race plane (and the serve core for byte identity), \
                 fusion pairs through the equivalence query; compare all \
                 verdicts against the constructed truth.")
      $ jobs_arg
      $ Arg.(
          value & opt int 4
          & info [ "serve-sample" ] ~docv:"M"
              ~doc:
                "Cross-check this many scenarios through the serve core \
                 for byte identity with the batch plane (0 disables).")
      $ budget_term $ validate_arg $ inject_arg)

(* --- baseline --- *)

let baseline_cmd =
  let run verbose file a b =
    setup_logs verbose;
    let info = load_source file in
    match Baseline.can_fuse info.prog a b with
    | verdict ->
      Fmt.pr "coarse baseline: fuse %s and %s: %a@." a b Baseline.pp_verdict
        verdict;
      0
    | exception Baseline.Unknown_traversal f ->
      Fmt.epr "unknown traversal %s; the program's functions: %s@." f
        (String.concat ", "
           (List.map (fun (fn : Ast.func) -> fn.fname) info.prog.funcs));
      2
  in
  Cmd.v
    (Cmd.info "baseline" ~exits
       ~doc:"Ask the TreeFuser-style coarse analysis about a transformation.")
    Term.(
      const run $ verbose_arg
      $ file_arg 0 "Program file or builtin:NAME."
      $ Arg.(required & pos 1 (some string) None & info [] ~doc:"Traversal A.")
      $ Arg.(required & pos 2 (some string) None & info [] ~doc:"Traversal B."))

(* --- mona --- *)

let mona_cmd =
  let run verbose file output =
    setup_logs verbose;
    let info = load_source file in
    let env, f = Encode.data_race (Encode.make info) in
    Mona.write_mona ~path:output env f;
    Fmt.pr "wrote %s@." output;
    0
  in
  Cmd.v
    (Cmd.info "mona" ~exits
       ~doc:"Export the data-race query in MONA (WS2S) syntax.")
    Term.(
      const run $ verbose_arg
      $ file_arg 0 "Program file or builtin:NAME."
      $ Arg.(value & opt string "query.mona" & info [ "o" ] ~doc:"Output file."))

let () =
  let doc = "Reasoning about recursive tree traversals (Retreet)" in
  let main =
    Cmd.group (Cmd.info "retreet" ~doc)
      [
        check_cmd; race_cmd; batch_cmd; serve_cmd; ask_cmd; equiv_cmd;
        run_cmd; fuse_cmd; gen_cmd; baseline_cmd; mona_cmd;
      ]
  in
  exit (Cmd.eval' main)
