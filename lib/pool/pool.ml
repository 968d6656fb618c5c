(* Domain pools.  See pool.mli for the contract.

   One scheduler: [Supervised] owns the worker domains, the job queue and
   cancellation; [run_batch] is a short-lived [Supervised] pool whose jobs
   never crash.  Determinism: every task runs under a fresh Solver_ctx and
   results are collected by awaiting the tickets in submission order, so
   neither the scheduling order nor the worker count can influence any
   individual result or the order results are returned in. *)

let slice_share ~left ~remaining ~jobs =
  if left <= 0. || remaining <= 0 then 0.
  else
    let jobs = max 1 jobs in
    let rounds = max 1 ((remaining + jobs - 1) / jobs) in
    left /. float_of_int rounds

(* The concurrency-layer fault site ["pool.submit"]: when armed on the
   domain that calls [Supervised.submit], a firing hit marks the submitted
   job as sabotaged, and the worker that picks it up raises
   [Faults.Injected_crash] in place of running it, on every attempt.
   This exercises the full supervision path deterministically: crash
   isolation, worker restart with backoff, one requeue, and the typed
   [Supervised.Crashed] outcome. *)
let submit_site =
  Faults.register ~name:"pool.submit"
    ~descr:"crash the worker that picks up a submitted supervised job" ()

module Supervised = struct
  type 'a outcome =
    | Done of 'a
    | Crashed of { attempts : int; last_exn : string }
    | Cancelled of string

  type 'a job = {
    work : unit -> 'a;
    sabotaged : bool;  (* submit_site fired at submission *)
    mutable attempts : int;  (* executions started *)
    mutable result : 'a outcome option;
    resolved : Condition.t;
  }

  type stats = {
    submitted : int;
    completed : int;
    crashes : int;
    restarts : int;
    retries : int;
    max_depth : int;
  }

  (* Everything mutable lives under [m].  The queue is a deque as two
     lists: [front] (retries, popped first) then [back] (reversed
     submission order). *)
  type 'a t = {
    m : Mutex.t;
    nonempty : Condition.t;  (* queue grew or state changed: workers wake *)
    mutable front : 'a job list;
    mutable back : 'a job list;
    mutable queued : int;
    mutable stopping : bool;  (* drain started: no new submissions *)
    mutable killed : bool;  (* grace expired: workers exit even if queued *)
    mutable outstanding : int;  (* accepted and not yet resolved *)
    mutable s : stats;
    max_retries : int;
    backoff : int -> float;
  }

  let default_backoff k = Float.min 0.5 (0.01 *. (2. ** float_of_int k))

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  (* Called with [t.m] held. *)
  let push t ~front j =
    if front then t.front <- j :: t.front else t.back <- j :: t.back;
    t.queued <- t.queued + 1;
    if t.queued > t.s.max_depth then t.s <- { t.s with max_depth = t.queued };
    Condition.signal t.nonempty

  let resolve t j outcome =
    (* with [t.m] held *)
    if j.result = None then begin
      j.result <- Some outcome;
      t.outstanding <- t.outstanding - 1;
      (match outcome with
      | Done _ -> t.s <- { t.s with completed = t.s.completed + 1 }
      | Crashed _ | Cancelled _ -> ());
      Condition.broadcast j.resolved
    end

  (* Take the next job, with [t.m] held: [None] once the pool is
     drained, or (when not [wait]ing) when the queue is empty. *)
  let rec take t ~wait =
    if t.front == [] then begin
      t.front <- List.rev t.back;
      t.back <- []
    end;
    if t.killed || (t.stopping && t.queued = 0) then None
    else
      match t.front with
      | j :: rest ->
        t.front <- rest;
        t.queued <- t.queued - 1;
        Some j
      | [] when wait ->
        Condition.wait t.nonempty t.m;
        take t ~wait
      | [] -> None

  let run_job j =
    j.attempts <- j.attempts + 1;
    if j.sabotaged then
      raise (Faults.Injected_crash (Faults.site_name submit_site))
    else j.work ()

  (* A job died with [e]: requeue it at the front for another attempt,
     or resolve it [Crashed] once its retries are spent.  With [t.m]
     held. *)
  let on_crash t j e =
    t.s <- { t.s with crashes = t.s.crashes + 1 };
    if j.attempts <= t.max_retries && not (t.stopping || t.killed) then begin
      t.s <- { t.s with retries = t.s.retries + 1 };
      push t ~front:true j
    end
    else
      resolve t j
        (Crashed { attempts = j.attempts; last_exn = Printexc.to_string e })

  (* The worker-domain body: pull jobs until drained.  Returns normally
     on drain; returns the crashing job and exception when a job dies,
     so the supervisor thread can requeue and respawn. *)
  type 'a worker_exit = Drained | Worker_crash of 'a job * exn

  let rec worker_body t =
    match locked t (fun () -> take t ~wait:true) with
    | None -> Drained
    | Some j -> (
      match run_job j with
      | v ->
        locked t (fun () -> resolve t j (Done v));
        worker_body t
      | exception e -> Worker_crash (j, e))

  (* One supervisor thread per worker slot: spawn the domain, join it,
     and on a crash handle the victim job, wait out the backoff, and
     respawn — forever, until drain. *)
  let rec supervise t ~consecutive =
    let d = Domain.spawn (fun () -> worker_body t) in
    match Domain.join d with
    | Drained -> ()
    | Worker_crash (j, e) ->
      let respawn =
        locked t (fun () ->
            on_crash t j e;
            not t.killed)
      in
      if respawn then begin
        Thread.delay (t.backoff consecutive);
        locked t (fun () -> t.s <- { t.s with restarts = t.s.restarts + 1 });
        supervise t ~consecutive:(consecutive + 1)
      end

  let create ~workers ?(max_retries = 1) ?(backoff = default_backoff) () =
    let t =
      {
        m = Mutex.create ();
        nonempty = Condition.create ();
        front = [];
        back = [];
        queued = 0;
        stopping = false;
        killed = false;
        outstanding = 0;
        s =
          { submitted = 0; completed = 0; crashes = 0; restarts = 0;
            retries = 0; max_depth = 0 };
        max_retries;
        backoff;
      }
    in
    for _ = 1 to workers do
      ignore (Thread.create (fun () -> supervise t ~consecutive:0) ())
    done;
    t

  type 'a ticket = 'a job

  let submit t work =
    (* The submission-time fault decision happens on the caller, where
       the armed state lives; the crash itself happens on the worker. *)
    let sabotaged = Faults.fire submit_site in
    let j =
      { work; sabotaged; attempts = 0; result = None;
        resolved = Condition.create () }
    in
    locked t (fun () ->
        if t.stopping || t.killed then
          (* never queued, so nobody can be waiting on it yet *)
          j.result <- Some (Cancelled "pool is draining")
        else begin
          t.s <- { t.s with submitted = t.s.submitted + 1 };
          t.outstanding <- t.outstanding + 1;
          push t ~front:false j
        end);
    j

  let await t j =
    locked t (fun () ->
        while j.result = None do Condition.wait j.resolved t.m done;
        Option.get j.result)

  let run t work = await t (submit t work)

  (* The calling thread as one more worker, until the queue is empty.  A
     job that raises here is a crash like on a worker domain, minus the
     respawn: the caller's domain survives it. *)
  let rec work t =
    match locked t (fun () -> take t ~wait:false) with
    | None -> ()
    | Some j ->
      (match run_job j with
      | v -> locked t (fun () -> resolve t j (Done v))
      | exception e -> locked t (fun () -> on_crash t j e));
      work t

  let depth t = locked t (fun () -> t.queued)
  let stats t = locked t (fun () -> t.s)

  let drain ?(grace = 5.) t =
    let deadline = Unix.gettimeofday () +. grace in
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    (* Poll-wait for quiescence: stdlib [Condition] has no timed wait,
       and drain runs once per server lifetime. *)
    while t.outstanding > 0 && Unix.gettimeofday () < deadline do
      Mutex.unlock t.m;
      Thread.delay 0.02;
      Mutex.lock t.m
    done;
    t.killed <- true;
    (* queued jobs are unresolved: a job is resolved only once taken *)
    let tail = t.front @ List.rev t.back in
    let why = "drain deadline passed before a worker ran it" in
    List.iter (fun j -> resolve t j (Cancelled why)) tail;
    t.front <- [];
    t.back <- [];
    t.queued <- 0;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    List.length tail
end

(* --- batch on the supervised pool ------------------------------------ *)

let cancelled_reason = { Engine.resource = Engine.Wall_clock; used = 0; limit = 0 }

let run_batch ~jobs ?(budget = Engine.unlimited) tasks =
  let n = List.length tasks in
  let jobs = max 1 (min jobs (max 1 n)) in
  let deadline =
    match budget.Engine.timeout with
    | None -> infinity
    | Some s -> Unix.gettimeofday () +. s
  in
  (* Tasks not yet started, for wall-clock slicing. *)
  let remaining = Atomic.make n in
  let cancel = Atomic.make false in
  let crashed = Atomic.make None in
  let run_one task () =
    let rem = Atomic.fetch_and_add remaining (-1) in
    let left = deadline -. Unix.gettimeofday () in
    if Atomic.get cancel || (deadline < infinity && left <= 0.) then begin
      Atomic.set cancel true;
      Error cancelled_reason
    end
    else
      let task_budget =
        if deadline = infinity then budget
        else
          { budget with
            Engine.timeout = Some (slice_share ~left ~remaining:rem ~jobs) }
      in
      match
        (* [with_budget unlimited] installs nothing; it is used here only
           as the guard that converts a stray [Out_of_budget] (or stack /
           heap exhaustion) escaping the task into an [Error]. *)
        Solver_ctx.with_fresh (fun () ->
            Engine.with_budget Engine.unlimited (fun () -> task task_budget))
      with
      | r -> r
      | exception e ->
        (* A non-budget exception escaping a task is a batch-level
           failure: record the first one, cancel the rest, and re-raise
           from the caller once the pool drains.  Catching it here keeps
           it from looking like a worker crash to the supervisor. *)
        ignore (Atomic.compare_and_set crashed None (Some e));
        Atomic.set cancel true;
        Error cancelled_reason
  in
  (* The calling domain is one of the [jobs] workers: an extra domain
     idling in [await] would still have to join every stop-the-world
     minor collection of the busy ones. *)
  let pool = Supervised.create ~workers:(jobs - 1) () in
  let tickets =
    List.map (fun task -> Supervised.submit pool (run_one task)) tasks
  in
  Supervised.work pool;
  let results =
    List.map
      (fun ticket ->
        match Supervised.await pool ticket with
        | Supervised.Done r -> r
        | Supervised.Crashed _ | Supervised.Cancelled _ ->
          Error cancelled_reason)
      tickets
  in
  ignore (Supervised.drain pool);
  (match Atomic.get crashed with Some e -> raise e | None -> ());
  results
