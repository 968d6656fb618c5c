(* Socket daemon shell.  See serve_server.mli for the contract. *)

let ignore_exn f = try f () with _ -> ()

(* The accept-path fault site: the connection is taken from the backlog
   and dropped before a handler ever sees it, as if the process had run
   out of descriptors right after accept().  Clients observe a peer that
   closed without a reply — the retry path, not a crash. *)
let accept_site =
  Faults.register ~plane:Faults.Io ~name:"accept"
    ~descr:"drop an accepted connection before handling (fd exhaustion)" ()

(* Bind the listener, recovering a stale socket file: if nothing
   accepts on the path, the previous server died without unlinking. *)
let listen_on path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_UNIX path in
  (match Unix.bind fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe addr with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if live then begin
      Unix.close fd;
      failwith (Printf.sprintf "another server is live on %s" path)
    end
    else begin
      Unix.unlink path;
      Unix.bind fd addr
    end);
  Unix.listen fd 64;
  fd

(* One connection: serve requests until EOF, a framing error, or the
   read deadline.  The deadline (SO_RCVTIMEO) covers both a client that
   stalls mid-frame and one that holds the connection open silently —
   either way the handler thread is reclaimed instead of wedged. *)
let handle ?(read_deadline = 0.) core fd =
  if read_deadline > 0. then (
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_deadline
    with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let reply r =
    Serve_wire.write_reply oc ~status:(Serve.status_word r)
      ~code:(Serve.reply_code r) ~hints:(Serve.reply_hints r)
      (Serve.reply_text r)
  in
  let rec loop () =
    match Serve_wire.read_request ic with
    | None -> ()
    | exception (Sys_error _ | Sys_blocked_io) ->
      (* the read deadline expired (SO_RCVTIMEO's EAGAIN surfaces from
         the channel as Sys_blocked_io) or the descriptor died under
         us (Sys_error): kick the
         connection with a typed error — best-effort, the peer may be
         gone — and reclaim the slot *)
      Serve_wire.write_reply oc ~status:"ERROR" ~code:2
        (Printf.sprintf
           "read deadline exceeded after %.1fs of silence; the \
            connection is closed"
           read_deadline)
    | Some (Error msg) ->
      (* drop the connection: after a framing error the stream position
         is unreliable *)
      Serve_wire.write_reply oc ~status:"ERROR" ~code:2 msg
    | Some (Ok req) ->
      (match req with
      | Serve_wire.Ping -> Serve_wire.write_reply oc ~status:"PONG" ~code:0 ""
      | Serve_wire.Metrics ->
        Serve_wire.write_reply oc ~status:"METRICS" ~code:0
          (Serve.Core.metrics_text core)
      | Serve_wire.Solve { opts; source } -> (
        match Serve.options_of_assoc opts with
        | Error msg ->
          Serve.Core.note_bad_request core;
          reply (Serve.Bad_request msg)
        | Ok options -> reply (Serve.Core.solve core ~options ~source)));
      loop ()
  in
  ignore_exn loop;
  (* close the shared fd exactly once, through oc (flush + close); ic's
     buffer is reclaimed by the GC.  Closing ic too — or the raw fd —
     would double-close: by then the number may belong to a freshly
     accepted connection, and killing it looks exactly like a server
     that drops clients at the read deadline without the typed kick. *)
  close_out_noerr oc

type t = {
  core : Serve.Core.t;
  socket : string;
  lfd : Unix.file_descr;
  grace : float;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  active : int ref;
  active_m : Mutex.t;
  thread : Thread.t;
  mutable drained : int option;  (* await's result, once computed *)
}

let start ~socket ?workers ?max_queue ?cache_nodes ?allowance ?window
    ?(grace = 5.) ?(read_deadline = 30.) ?snapshot ?snapshot_every ?inject
    () =
  let armed =
    (* server-process fault arming ([retreet serve --inject]): the
       accept loop and every handler thread run on this domain, so one
       arm covers the whole I/O plane; worker domains are untouched *)
    match inject with
    | None -> Ok ()
    | Some (site, seed, period) ->
      if List.mem_assoc site (Faults.all_sites ()) then
        Ok (Faults.arm ~period ~site ~seed ())
      else
        Error
          (Printf.sprintf "unknown fault site %S (known: %s)" site
             (String.concat ", " (List.map fst (Faults.all_sites ()))))
  in
  match armed with
  | Error msg -> Error msg
  | Ok () -> (
    match listen_on socket with
    | exception Failure msg -> Error msg
    | lfd ->
      (* A client that vanishes mid-reply must not kill the daemon. *)
      ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
      let stop_r, stop_w = Unix.pipe () in
      let core =
        Serve.Core.create ?workers ?max_queue ?cache_nodes ?allowance
          ?window ?snapshot ?snapshot_every ()
      in
      let active = ref 0 in
      let active_m = Mutex.create () in
      let bump d =
        Mutex.lock active_m;
        active := !active + d;
        Mutex.unlock active_m
      in
      let rec accept_loop () =
        match Unix.select [ lfd; stop_r ] [] [] (-1.) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | ready, _, _ ->
          if List.mem stop_r ready then ()
          else begin
            (match Unix.accept lfd with
            | fd, _ ->
              if Faults.fire accept_site then
                ignore_exn (fun () -> Unix.close fd)
              else begin
                bump 1;
                ignore
                  (Thread.create
                     (fun () ->
                       Fun.protect
                         ~finally:(fun () -> bump (-1))
                         (fun () -> handle ~read_deadline core fd))
                     ())
              end
            | exception Unix.Unix_error _ -> ());
            accept_loop ()
          end
      in
      let thread = Thread.create accept_loop () in
      Ok
        {
          core;
          socket;
          lfd;
          grace;
          stop_r;
          stop_w;
          active;
          active_m;
          thread;
          drained = None;
        })

(* Async-signal-safe: a self-pipe write.  Does not wait. *)
let signal_stop t =
  ignore_exn (fun () -> ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1))

let await t =
  match t.drained with
  | Some cut -> cut
  | None ->
    Thread.join t.thread;
    (* stop accepting first, then give in-flight work the grace slice *)
    ignore_exn (fun () -> Unix.close t.lfd);
    ignore_exn (fun () -> Unix.unlink t.socket);
    let cut = Serve.Core.drain ~grace:t.grace t.core in
    (* Handler threads only have replies left to write; give them a
       bounded moment to finish before the caller moves on. *)
    let deadline = Unix.gettimeofday () +. 2. in
    while !(t.active) > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.02
    done;
    ignore_exn (fun () -> Unix.close t.stop_r);
    ignore_exn (fun () -> Unix.close t.stop_w);
    t.drained <- Some cut;
    cut

let stop t =
  signal_stop t;
  await t

let run ~socket ?workers ?max_queue ?cache_nodes ?allowance ?window
    ?(grace = 5.) ?read_deadline ?snapshot ?snapshot_every ?inject () =
  (* Block SIGTERM/SIGINT before any thread or worker domain exists, so
     every thread inherits the mask and the signals can only be consumed
     by the synchronous wait below.  An async Signal_handle is a trap
     here: the kernel delivers the signal to an arbitrary unblocked
     thread, and on an idle daemon every thread sits outside the OCaml
     runtime (pthread_join, select, condition waits) where the pending
     handler never runs — SIGTERM would then wedge instead of drain. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
  match
    start ~socket ?workers ?max_queue ?cache_nodes ?allowance ?window ~grace
      ?read_deadline ?snapshot ?snapshot_every ?inject ()
  with
  | Error msg ->
    Fmt.epr "retreet serve: %s@." msg;
    2
  | Ok t ->
    Fmt.pr "retreet serve: listening on %s@." socket;
    (match Serve.Core.snapshot_info t.core with
    | None -> ()
    | Some (descr, _) -> Fmt.pr "retreet serve: snapshot %s@." descr);
    Format.pp_print_flush Fmt.stdout ();
    (* consume the shutdown signal synchronously, then drain *)
    ignore (Thread.wait_signal [ Sys.sigterm; Sys.sigint ]);
    signal_stop t;
    Fmt.pr "retreet serve: draining (grace %.1fs)@." grace;
    Format.pp_print_flush Fmt.stdout ();
    let cut = await t in
    Fmt.pr "retreet serve: drained (%d quer%s cut)@.%s" cut
      (if cut = 1 then "y" else "ies")
      (Serve.Core.metrics_text t.core);
    Format.pp_print_flush Fmt.stdout ();
    0
