(* Daemon core.  See serve.mli for the contract. *)

type options = {
  client : string;
  budget : Engine.budget;
  vlevel : Validate.level;
  inject : (string * int * int) option;
}

let default_options =
  {
    client = "anonymous";
    budget = Engine.unlimited;
    vlevel = Validate.Witness;
    inject = None;
  }

let level_name l =
  match List.find_opt (fun (_, l') -> l' = l) Validate.level_enum with
  | Some (name, _) -> name
  | None -> assert false (* level_enum is total *)

let options_of_assoc kvs =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc (k, v) ->
      let* o = acc in
      let b = o.budget in
      match k with
      | "client" -> Ok { o with client = v }
      | "validate" -> (
        match List.assoc_opt v Validate.level_enum with
        | Some l -> Ok { o with vlevel = l }
        | None -> Error (Printf.sprintf "unknown validation level %S" v))
      | "timeout" -> (
        match float_of_string_opt v with
        | Some s when s >= 0. ->
          Ok { o with budget = { b with Engine.timeout = Some s } }
        | _ -> Error (Printf.sprintf "bad timeout %S" v))
      | "max-nodes" | "max-states" | "max-steps" -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
          let budget =
            match k with
            | "max-nodes" -> { b with Engine.max_bdd_nodes = Some n }
            | "max-states" -> { b with Engine.max_states = Some n }
            | _ -> { b with Engine.max_steps = Some n }
          in
          Ok { o with budget }
        | _ -> Error (Printf.sprintf "bad %s %S" k v))
      | "inject" ->
        let* t = Faults.parse_spec v in
        Ok { o with inject = Some t }
      | _ -> Error (Printf.sprintf "unknown option %S" k))
    (Ok default_options) kvs

let options_to_assoc o =
  let b = o.budget in
  let opt f = function None -> [] | Some v -> [ f v ] in
  [ ("client", o.client) ]
  @ (if o.vlevel = default_options.vlevel then []
     else [ ("validate", level_name o.vlevel) ])
  @ opt (fun s -> ("timeout", Printf.sprintf "%.17g" s)) b.Engine.timeout
  @ opt (fun n -> ("max-nodes", string_of_int n)) b.Engine.max_bdd_nodes
  @ opt (fun n -> ("max-states", string_of_int n)) b.Engine.max_states
  @ opt (fun n -> ("max-steps", string_of_int n)) b.Engine.max_steps
  @ opt
      (fun (site, seed, period) ->
        ("inject", Printf.sprintf "%s:%d:%d" site seed period))
      o.inject

type reply =
  | Verdict of { code : int; text : string }
  | Bad_request of string
  | Overloaded of { msg : string; retry_after : float }
  | Server_unknown of string
  | Draining of string

let status_word = function
  | Verdict _ -> "REPLY"
  | Bad_request _ -> "ERROR"
  | Overloaded _ -> "OVERLOADED"
  | Server_unknown _ -> "SERVER-UNKNOWN"
  | Draining _ -> "DRAINING"

let reply_code = function
  | Verdict { code; _ } -> code
  | Bad_request _ -> 2
  | Overloaded _ | Server_unknown _ | Draining _ -> 3

let reply_text = function
  | Verdict { text; _ } -> text
  | Overloaded { msg; _ } -> msg
  | Bad_request t | Server_unknown t | Draining t -> t

let reply_hints = function
  | Overloaded { retry_after; _ } when retry_after > 0. ->
    [ ("retry-after", Printf.sprintf "%.3f" retry_after) ]
  | _ -> []

(* The I/O-plane sites perturb transport and persistence, not solver
   math: arming one around a worker's solve is meaningless, so the
   daemon refuses them as per-query options — they are armed on the
   server process ([retreet serve --inject]) or the client ([retreet
   ask --inject]) instead.  The classification itself lives with the
   registry ([Faults.register ~plane]); an unregistered name is not
   I/O-plane — the caller's unknown-site check rejects it anyway. *)
let io_plane_site name =
  match Faults.site_plane name with Some Faults.Io -> true | _ -> false

let fingerprint ~options ~source =
  let b = Buffer.create (String.length source + 128) in
  List.iter
    (fun (k, v) ->
      if k <> "client" then begin
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v;
        Buffer.add_char b '\x00'
      end)
    (options_to_assoc options);
  Buffer.add_string b source;
  Digest.to_hex (Digest.string (Buffer.contents b))

module Core = struct
  type job_result =
    (Analysis.race_result * Validate.report, Engine.reason) result
    * Engine.usage

  type t = {
    pool : job_result Pool.Supervised.t;
    cache : Serve_cache.t;
    metrics : Serve_metrics.t;
    ledger : Engine.Ledger.t;
    max_queue : int;
    workers : int;
    (* Connection threads share the accept domain's fault-arming state
       (Domain.DLS is per-domain, not per-thread), so the arm/submit
       window is a critical section. *)
    arm_m : Mutex.t;
    mutable stopping : bool;
    (* Durability: [snapshot] is the on-disk home of the reply cache.
       Saves happen on whichever handler thread trips the period, under
       [snap_m]; a thread that finds the lock busy skips — the save in
       flight is at most [snapshot_every] queries stale, which is the
       contract anyway. *)
    snapshot : string option;
    snapshot_every : int;
    snap_m : Mutex.t;
    mutable since_save : int;
    mutable snapshot_saves : int;
    mutable snapshot_save_failures : int;
    snapshot_loaded : int;
    snapshot_load_status : Serve_snapshot.load_status option;
  }

  let create ?(workers = 2) ?(max_queue = 64) ?(cache_nodes = 1_000_000)
      ?allowance ?window ?snapshot ?(snapshot_every = 64) () =
    let workers = max 1 workers in
    let cache = Serve_cache.create ~capacity:cache_nodes in
    let loaded, load_status =
      match snapshot with
      | None -> (0, None)
      | Some path ->
        let entries, status = Serve_snapshot.load ~path in
        List.iter
          (fun (key, weight, value) ->
            Serve_cache.add cache ~key ~weight value)
          entries;
        (List.length entries, Some status)
    in
    {
      pool = Pool.Supervised.create ~workers ();
      cache;
      metrics = Serve_metrics.create ();
      ledger = Engine.Ledger.create ?window ?allowance ();
      max_queue;
      workers;
      arm_m = Mutex.create ();
      stopping = false;
      snapshot;
      snapshot_every = max 0 snapshot_every;
      snap_m = Mutex.create ();
      since_save = 0;
      snapshot_saves = 0;
      snapshot_save_failures = 0;
      snapshot_loaded = loaded;
      snapshot_load_status = load_status;
    }

  let snapshot_info t =
    match t.snapshot_load_status with
    | None -> None
    | Some status -> Some (Serve_snapshot.describe status, t.snapshot_loaded)

  (* Flush the reply cache to disk, atomically.  [block:false] (the
     periodic path) skips if another thread is already saving. *)
  let snapshot_now ?(block = true) t =
    match t.snapshot with
    | None -> Ok 0
    | Some path ->
      let locked =
        if block then (Mutex.lock t.snap_m; true) else Mutex.try_lock t.snap_m
      in
      if not locked then Ok 0
      else
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.snap_m)
          (fun () ->
            t.since_save <- 0;
            match
              Serve_snapshot.save ~path (Serve_cache.snapshot_entries t.cache)
            with
            | Ok bytes ->
              t.snapshot_saves <- t.snapshot_saves + 1;
              Ok bytes
            | Error msg ->
              (* masked: a failed save costs durability freshness, never
                 a reply — the previous snapshot is still intact *)
              t.snapshot_save_failures <- t.snapshot_save_failures + 1;
              Error msg)

  let maybe_snapshot t =
    if t.snapshot <> None && t.snapshot_every > 0 then begin
      t.since_save <- t.since_save + 1;
      if t.since_save >= t.snapshot_every then
        ignore (snapshot_now ~block:false t)
    end

  let check_inject = function
    | None -> Ok None
    | Some ((site, _, _) as spec) -> (
      match Faults.site_plane site with
      | Some Faults.Solver -> Ok (Some spec)
      | Some Faults.Io ->
        Error
          (Printf.sprintf
             "fault site %S is in the server's I/O plane; arm it with \
              `retreet serve --inject` (server side) or locally in the \
              client, not as a per-query option"
             site)
      | None ->
        Error
          (Printf.sprintf "unknown fault site %S (known: %s)" site
             (String.concat ", " (List.map fst (Faults.all_sites ())))))

  let parse_source source =
    match Parser.parse_program source with
    | exception Lexer.Error msg | exception Parser.Error msg -> Error msg
    | prog -> (
      match Wf.check prog with
      | Ok info -> Ok info
      | Error es ->
        Error ("ill-formed Retreet program:\n" ^ String.concat "\n" es))

  (* A wall-clock unknown depends on machine load; caching one would
     freeze a transient stall into every future reply.  Everything else
     the pipeline produces is deterministic in (source, options). *)
  let cacheable options code =
    code <> 3 || options.budget.Engine.timeout = None

  let run_query t ~options ~inject ~info ~key =
    let query () =
      Validate.check_data_race ~level:options.vlevel ~budget:options.budget
        info
    in
    let job () =
      (* exactly the per-query wrapping of batch mode (byte identity):
         cold solver state on the worker domain, budget guard, arming on
         the worker domain *)
      Solver_ctx.with_fresh (fun () ->
          Engine.metered (fun () -> Faults.with_armed inject query))
    in
    let ticket =
      (* every submission takes the arming lock: [pool.submit] fires at
         submission time on the accept domain, whose Faults state is
         shared by all connection threads — a clean submission racing an
         armed one would otherwise pick up the fault.  Armed or not, the
         lock spans only the (cheap) submission, never the solve. *)
      Mutex.lock t.arm_m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.arm_m)
        (fun () ->
          Faults.with_armed inject (fun () ->
              Pool.Supervised.submit t.pool job))
    in
    match Pool.Supervised.await t.pool ticket with
    | Pool.Supervised.Done (r, usage) ->
      Engine.Ledger.charge t.ledger ~client:options.client
        usage.Engine.wall_s;
      Serve_metrics.record_solve t.metrics usage.Engine.wall_s;
      let text, code = Validate.render_task Analysis.render_race r in
      if cacheable options code then begin
        Serve_cache.add t.cache ~key ~weight:usage.Engine.nodes (text, code);
        maybe_snapshot t
      end;
      Verdict { code; text }
    | Pool.Supervised.Crashed { attempts; last_exn } ->
      Serve_metrics.incr t.metrics Serve_metrics.Server_unknown;
      Server_unknown
        (Printf.sprintf
           "UNKNOWN: the query crashed its worker on all %d attempts \
            (last: %s); the verdict is unknown but the server is healthy"
           attempts last_exn)
    | Pool.Supervised.Cancelled why ->
      Serve_metrics.incr t.metrics Serve_metrics.Draining;
      Draining why

  let solve t ~options ~source =
    if t.stopping then begin
      Serve_metrics.incr t.metrics Serve_metrics.Draining;
      Draining "server is draining; no new queries are admitted"
    end
    else begin
      Serve_metrics.incr t.metrics Serve_metrics.Queries;
      match Engine.Ledger.admit t.ledger ~client:options.client with
      | Error msg ->
        Serve_metrics.incr t.metrics Serve_metrics.Overloaded;
        Overloaded
          {
            msg;
            retry_after =
              Engine.Ledger.retry_hint t.ledger ~client:options.client;
          }
      | Ok () -> (
        let depth = Pool.Supervised.depth t.pool in
        if depth >= t.max_queue then begin
          Serve_metrics.incr t.metrics Serve_metrics.Overloaded;
          Overloaded
            {
              msg =
                Printf.sprintf
                  "queue depth %d is at capacity %d; retry after a backoff"
                  depth t.max_queue;
              (* rough time for the backlog to clear one queue slot *)
              retry_after =
                Float.min 2.
                  (0.05 *. float_of_int depth /. float_of_int t.workers);
            }
        end
        else
          match check_inject options.inject with
          | Error msg ->
            Serve_metrics.incr t.metrics Serve_metrics.Bad_requests;
            Bad_request msg
          | Ok inject -> (
            match parse_source source with
            | Error msg ->
              Serve_metrics.incr t.metrics Serve_metrics.Bad_requests;
              Bad_request msg
            | Ok info -> (
              let key = fingerprint ~options ~source in
              match Serve_cache.find t.cache key with
              | Some (text, code) -> Verdict { code; text }
              | None -> run_query t ~options ~inject ~info ~key)))
    end

  let note_bad_request t =
    Serve_metrics.incr t.metrics Serve_metrics.Bad_requests

  let metrics_text t =
    let m = t.metrics in
    let c = Serve_cache.stats t.cache in
    let ps = Pool.Supervised.stats t.pool in
    let up = Serve_metrics.uptime m in
    let queries = Serve_metrics.count m Serve_metrics.Queries in
    let lookups = c.Serve_cache.hits + c.Serve_cache.misses in
    let buf = Buffer.create 1024 in
    let line k v = Buffer.add_string buf (Printf.sprintf "%-22s %s\n" k v) in
    let int k v = line k (string_of_int v) in
    line "uptime_s" (Printf.sprintf "%.1f" up);
    int "queries" queries;
    line "qps" (Printf.sprintf "%.2f" (float_of_int queries /. max 0.001 up));
    int "overloaded" (Serve_metrics.count m Serve_metrics.Overloaded);
    int "server_unknown" (Serve_metrics.count m Serve_metrics.Server_unknown);
    int "draining" (Serve_metrics.count m Serve_metrics.Draining);
    int "bad_requests" (Serve_metrics.count m Serve_metrics.Bad_requests);
    int "cache_hits" c.Serve_cache.hits;
    int "cache_misses" c.Serve_cache.misses;
    line "cache_hit_rate"
      (Printf.sprintf "%.3f"
         (if lookups = 0 then 0.
          else float_of_int c.Serve_cache.hits /. float_of_int lookups));
    int "cache_entries" c.Serve_cache.entries;
    int "cache_weight" c.Serve_cache.weight;
    int "cache_capacity" c.Serve_cache.capacity;
    int "cache_evictions" c.Serve_cache.evictions;
    int "queue_depth" (Pool.Supervised.depth t.pool);
    int "queue_high_water" ps.Pool.Supervised.max_depth;
    int "jobs_submitted" ps.Pool.Supervised.submitted;
    int "jobs_completed" ps.Pool.Supervised.completed;
    int "worker_crashes" ps.Pool.Supervised.crashes;
    int "worker_restarts" ps.Pool.Supervised.restarts;
    int "retries" ps.Pool.Supervised.retries;
    int "solves" (Serve_metrics.solves m);
    line "solve_p50_ms"
      (Printf.sprintf "%.1f" (1000. *. Serve_metrics.percentile m 0.5));
    line "solve_p99_ms"
      (Printf.sprintf "%.1f" (1000. *. Serve_metrics.percentile m 0.99));
    int "clients_active" (Engine.Ledger.clients t.ledger);
    int "contexts_created" (Solver_ctx.created ());
    int "snapshot_saves" t.snapshot_saves;
    int "snapshot_save_failures" t.snapshot_save_failures;
    int "snapshot_loaded_entries" t.snapshot_loaded;
    (match t.snapshot_load_status with
    | None -> ()
    | Some status ->
      line "snapshot_load_status" (Serve_snapshot.status_word status));
    Buffer.contents buf

  let drain ?grace t =
    t.stopping <- true;
    let cut = Pool.Supervised.drain ?grace t.pool in
    (* final flush after the pool is quiet: the snapshot on disk now
       reflects every reply this process ever produced *)
    ignore (snapshot_now t);
    cut
end
