(* Unified job-graph scheduler: the one fan-out layer every tool chunks
   through (Campaign, Equiv, Fault, Testbench, Sharded, bench), and the
   only caller of [Pool.run_team].

   A scheduler owns (or borrows) one {!Pool} domain team.  Clients
   submit jobs — a name, a priority, dependencies, a task count and a
   [body ~member task] — and [run] drains the whole graph on the team:
   each member claims tasks one at a time from the highest-priority
   ready job, so independent jobs interleave on one set of domains
   instead of each spinning up its own pool.  [member] indexes the
   claiming team member (0 .. domains-1), which is how engine clients
   pick a per-member replica: one replica per member, indexed by the
   [member] handed to bodies.

   Scheduling state lives behind one mutex; bodies and progress
   callbacks always run outside it (so a callback may safely re-enter
   the scheduler: cancel, submit, status).  That coarse lock is
   deliberate: tasks here are chunk-sized (one 62·K-lane engine pass, a
   whole equivalence pass), so the per-claim lock is noise next to the
   work, and it keeps cancellation, failure propagation and the
   dependency bookkeeping obviously correct.

   Resilience (PR 10): jobs may carry a deadline (expiry at a chunk
   boundary moves the job to the terminal [Timed_out] state, which
   cancels dependents exactly like a failure), a retry policy (failed
   tasks classified transient are re-claimed after an exponential
   backoff with deterministic jitter, attempts capped and journaled in
   the job's {!trail}), and a lane demand (an [?admission] controller
   sheds the lowest-priority pending jobs when the in-flight lane
   budget is exceeded).  A [?watchdog] horizon arms a monitor that
   fails the owning job of any pool member whose heartbeat goes stale —
   with a stack-site witness — instead of hanging the team.  Deadlines,
   backoff due-times and the watchdog are driven by a ticker domain
   that wakes parked members; it exists only while [run] executes and
   only when some job needs it. *)

module Pool = Hydra_parallel.Pool

exception Dependency_cycle of string list

exception Interrupted

type status =
  | Pending
  | Running
  | Done
  | Failed of exn
  | Cancelled
  | Timed_out

type job = {
  id : int;
  name : string;
  priority : int;
  tasks : int;
  body : member:int -> int -> unit;
  progress : (done_:int -> total:int -> unit) option;
  deadline : float option;  (* absolute wall clock *)
  retry : Resilience.retry option;
  lanes : int option;  (* declared engine-lane demand, for admission *)
  submitted : float;
  attempts : (int, int) Hashtbl.t;  (* task -> failed attempts *)
  mutable deps : job list;
  mutable state : status;
  mutable next : int;  (* next unclaimed fresh task *)
  mutable retry_queue : int list;  (* failed tasks awaiting re-claim *)
  mutable not_before : float;  (* earliest next claim (backoff) *)
  mutable completed : int;
  mutable inflight : int;
  mutable shed : bool;  (* cancelled by the admission controller *)
  mutable trail : string list;  (* journal, newest entry first *)
}

type t = {
  pool : Pool.t;
  owns_pool : bool;
  watchdog : float option;  (* heartbeat horizon, seconds *)
  admission : Resilience.admission option;
  m : Mutex.t;
  cv : Condition.t;
  mutable jobs : job list;  (* newest first *)
  mutable seq : int;
  mutable running : bool;
  mutable stuck : string list option;
  mutable active : (job * float) option array;  (* per member: claim *)
  mutable ticker : unit Domain.t option;
}

let make_t ~pool ~owns_pool ~watchdog ~admission =
  (match watchdog with
  | Some h when h <= 0.0 ->
    invalid_arg "Scheduler: watchdog horizon must be > 0"
  | _ -> ());
  {
    pool;
    owns_pool;
    watchdog;
    admission;
    m = Mutex.create ();
    cv = Condition.create ();
    jobs = [];
    seq = 0;
    running = false;
    stuck = None;
    active = Array.make (Pool.size pool) None;
    ticker = None;
  }

let create ?domains ?watchdog ?admission () =
  make_t ~pool:(Pool.create ?domains ()) ~owns_pool:true ~watchdog ~admission

let of_pool ?watchdog ?admission pool =
  make_t ~pool ~owns_pool:false ~watchdog ~admission

let pool t = t.pool
let domains t = Pool.size t.pool
let shutdown t = if t.owns_pool then Pool.shutdown t.pool
let job_name j = j.name

let status t j =
  Mutex.lock t.m;
  let s = j.state in
  Mutex.unlock t.m;
  s

(* Journal an event on the job's progress trail (lock held).  Entries
   are stamped relative to submission so replays line up. *)
let journal j msg =
  j.trail <-
    Printf.sprintf "+%.3fs %s" (Resilience.now () -. j.submitted) msg
    :: j.trail

let trail t j =
  Mutex.lock t.m;
  let tr = List.rev j.trail in
  Mutex.unlock t.m;
  tr

(* A job is settled when nothing about it will change again: terminal
   state and no body still executing. *)
let terminal j =
  match j.state with
  | Done | Failed _ | Cancelled | Timed_out -> true
  | Pending | Running -> false

let settled j = terminal j && j.inflight = 0

let doomed t j =
  Mutex.lock t.m;
  let d =
    match j.state with
    | Failed _ | Cancelled | Timed_out -> true
    | Pending | Running | Done -> false
  in
  Mutex.unlock t.m;
  d

let checkpoint t j = if doomed t j then raise Interrupted

let beat t ~member =
  if member >= 0 && member < Pool.size t.pool then begin
    let _, site = Pool.last_beat t.pool member in
    Pool.heartbeat t.pool ~member ~site
  end

let dep_done d = d.state = Done

let dep_doomed d =
  match d.state with
  | Failed _ | Cancelled | Timed_out -> true
  | Pending | Running | Done -> false

(* Kill a job's unclaimed work (lock held). *)
let seal j =
  j.next <- j.tasks;
  j.retry_queue <- []

(* Admission shedding (lock held): while the declared lane demand of
   live jobs exceeds the budget, cancel the lowest-priority pending
   not-yet-started job (ties: the newest goes first).  Jobs without a
   lane declaration are outside the budget. *)
let shed_overload t a =
  let live_lanes () =
    List.fold_left
      (fun acc j ->
        match j.lanes with
        | Some l when not (terminal j) -> acc + l
        | _ -> acc)
      0 t.jobs
  in
  let sheddable j =
    (not (terminal j))
    && j.state = Pending
    && j.inflight = 0 && j.completed = 0
    && j.lanes <> None
  in
  let budget = Resilience.budget a in
  let continue_ = ref true in
  while !continue_ && live_lanes () > budget do
    let victim =
      List.fold_left
        (fun best j ->
          if not (sheddable j) then best
          else
            match best with
            | Some b
              when b.priority < j.priority
                   || (b.priority = j.priority && b.id > j.id) ->
              best
            | _ -> Some j)
        None t.jobs
    in
    match victim with
    | None -> continue_ := false
    | Some j ->
      j.state <- Cancelled;
      j.shed <- true;
      seal j;
      journal j
        (Printf.sprintf "shed: in-flight lane demand exceeds budget %d" budget);
      Resilience.count_shed a
  done

(* Deadline expiry and watchdog verdicts (lock held).  Called from
   every scheduling scan and from the ticker, so expiries are observed
   even while all members are parked or busy.  Returns whether any
   state changed (the caller broadcasts). *)
let reap t ~now =
  let changed = ref false in
  List.iter
    (fun j ->
      match (j.state, j.deadline) with
      | (Pending | Running), Some d when now > d ->
        j.state <- Timed_out;
        seal j;
        journal j
          (Printf.sprintf "deadline exceeded after %.3fs (%d/%d tasks done)"
             (now -. j.submitted) j.completed j.tasks);
        changed := true
      | _ -> ())
    t.jobs;
  (match t.watchdog with
  | None -> ()
  | Some horizon ->
    Array.iteri
      (fun member slot ->
        match slot with
        | Some (j, _since) when not (terminal j) ->
          let bt, site = Pool.last_beat t.pool member in
          let age = now -. bt in
          if age > horizon then begin
            j.state <- Failed (Resilience.Stuck_member { member; site; age });
            seal j;
            journal j
              (Printf.sprintf
                 "watchdog: member %d stuck at %S for %.3fs (> %.3fs horizon)"
                 member site age horizon);
            changed := true
          end
        | _ -> ())
      t.active);
  !changed

let rec submit ?(name = "job") ?(priority = 0) ?progress ?(deps = []) ?deadline
    ?retry ?lanes t ~tasks body =
  if tasks < 0 then invalid_arg "Scheduler.submit: tasks must be >= 0";
  (match deadline with
  | Some d when d <= 0.0 ->
    invalid_arg "Scheduler.submit: deadline must be > 0 seconds"
  | _ -> ());
  (match lanes with
  | Some l when l < 1 -> invalid_arg "Scheduler.submit: lanes must be >= 1"
  | _ -> ());
  let now = Resilience.now () in
  Mutex.lock t.m;
  let j =
    {
      id = t.seq;
      name;
      priority;
      tasks;
      body;
      progress;
      deadline = Option.map (fun d -> now +. d) deadline;
      retry;
      lanes;
      submitted = now;
      attempts = Hashtbl.create 4;
      deps;
      state = Pending;
      next = 0;
      retry_queue = [];
      not_before = now;
      completed = 0;
      inflight = 0;
      shed = false;
      trail = [];
    }
  in
  t.seq <- t.seq + 1;
  t.jobs <- j :: t.jobs;
  (match t.admission with Some a -> shed_overload t a | None -> ());
  (* a mid-run submission with a deadline or retry policy needs the
     ticker so backoff due-times and expiries fire while members park *)
  if
    t.running && t.ticker = None
    && (t.watchdog <> None || deadline <> None || retry <> None)
  then t.ticker <- Some (Domain.spawn (fun () -> ticker_loop t));
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  j

(* The ticker: a lightweight monitor domain alive for the duration of
   one [run].  Every tick it reaps expired deadlines and stale members
   and wakes the team, so a fully-parked team still observes timeouts
   and due backoffs.  Stops when [run] clears [running]. *)
and ticker_loop t =
  let tick =
    match t.watchdog with
    | Some h -> Float.min 0.001 (h /. 4.0)
    | None -> 0.001
  in
  let rec loop () =
    Unix.sleepf tick;
    Mutex.lock t.m;
    let continue_ = t.running in
    if continue_ then begin
      ignore (reap t ~now:(Resilience.now ()));
      Condition.broadcast t.cv
    end;
    Mutex.unlock t.m;
    if continue_ then loop ()
  in
  loop ()

let depend t ~job ~on =
  Mutex.lock t.m;
  job.deps <- on @ job.deps;
  Mutex.unlock t.m

let cancel t j =
  Mutex.lock t.m;
  (match j.state with
  | Pending | Running ->
    j.state <- Cancelled;
    seal j;
    journal j "cancelled";
    Condition.broadcast t.cv
  | Done | Failed _ | Cancelled | Timed_out -> ());
  Mutex.unlock t.m

(* Depth-first search for a dependency cycle among unsettled jobs; the
   witness lists the job names along the cycle, each depending on the
   next (and the last on the first).  Caller holds the lock. *)
let find_cycle jobs =
  let color : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let witness = ref None in
  let rec visit path j =
    if !witness = None && not (terminal j) then
      match Hashtbl.find_opt color j.id with
      | Some 2 -> ()
      | Some 1 ->
        (* [path] runs newest-first from the current job back to the
           root, with [j] itself at the head (just re-encountered); the
           cycle is everything from the head down to [j]'s previous
           visit, that occurrence included *)
        let rec take acc = function
          | [] -> acc
          | x :: _ when x.id = j.id -> x.name :: acc
          | x :: rest -> take (x.name :: acc) rest
        in
        witness := Some (match path with _ :: rest -> take [] rest | [] -> [])
      | Some _ | None ->
        Hashtbl.replace color j.id 1;
        List.iter (fun d -> visit (d :: path) d) j.deps;
        Hashtbl.replace color j.id 2
  in
  List.iter (fun j -> visit [ j ] j) jobs;
  !witness

(* One scheduling decision, lock held: settle what can settle, then
   either claim a task, finish (all settled), or park on the condvar. *)
type claim = Task of job * int | Finish | Park

(* Does the job have work a member could claim right now (ignoring the
   backoff gate)? *)
let claimable j =
  (match j.state with Pending | Running -> true | _ -> false)
  && (j.retry_queue <> [] || j.next < j.tasks)
  && List.for_all dep_done j.deps

let scan t ~member =
  let now = Resilience.now () in
  let changed = ref (reap t ~now) in
  (* propagate cancellation through doomed dependencies and settle ready
     zero-task jobs, to a fixpoint *)
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iter
      (fun j ->
        match j.state with
        | Pending ->
          if List.exists dep_doomed j.deps then begin
            j.state <- Cancelled;
            seal j;
            journal j "cancelled: dependency failed, timed out or cancelled";
            progressed := true;
            changed := true
          end
          else if j.tasks = 0 && List.for_all dep_done j.deps then begin
            j.state <- Done;
            progressed := true;
            changed := true
          end
        | _ -> ())
      t.jobs
  done;
  if !changed then Condition.broadcast t.cv;
  let best = ref None in
  List.iter
    (fun j ->
      if claimable j && now >= j.not_before then
        match !best with
        | Some b
          when b.priority > j.priority
               || (b.priority = j.priority && b.id < j.id) -> ()
        | _ -> best := Some j)
    t.jobs;
  match !best with
  | Some j ->
    if j.state = Pending then j.state <- Running;
    let i =
      match j.retry_queue with
      | i :: rest ->
        j.retry_queue <- rest;
        i
      | [] ->
        let i = j.next in
        j.next <- i + 1;
        i
    in
    j.inflight <- j.inflight + 1;
    t.active.(member) <- Some (j, now);
    Pool.heartbeat t.pool ~member ~site:j.name;
    Task (j, i)
  | None ->
    if List.for_all settled t.jobs then Finish
    else if
      List.exists (fun j -> j.inflight > 0) t.jobs
      || List.exists (fun j -> claimable j && now < j.not_before) t.jobs
    then Park
      (* nothing runnable this instant, but either bodies are still in
         flight or a backoff/due-time will make work claimable; the
         completion broadcast or the ticker wakes us *)
    else begin
      (* nothing claimable, nothing running, no pending due-time,
         unsettled jobs remain: a dependency cycle slipped in after
         [run]'s up-front check (jobs submitted mid-run).  Cancel the
         stragglers so every member can exit, and let [run] raise the
         witness. *)
      if t.stuck = None then
        t.stuck <- Some (Option.value ~default:[] (find_cycle t.jobs));
      List.iter
        (fun j ->
          if not (terminal j) then begin
            j.state <- Cancelled;
            seal j;
            journal j "cancelled: stuck-cycle backstop"
          end)
        t.jobs;
      Condition.broadcast t.cv;
      Finish
    end

let worker t member =
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.m;
    let rec decide () =
      match scan t ~member with
      | Park ->
        Condition.wait t.cv t.m;
        decide ()
      | (Task _ | Finish) as c -> c
    in
    match decide () with
    | Park -> assert false
    | Finish ->
      Mutex.unlock t.m;
      continue_ := false
    | Task (j, i) ->
      Mutex.unlock t.m;
      (* the body runs unlocked; an exception from it fails the job
         unless a retry policy classifies it transient with attempts to
         spare (siblings and unrelated jobs are unaffected — their
         claims continue; dependents get cancelled by the scan).
         [Interrupted] — the checkpoint signal on an already-doomed job
         — falls through harmlessly: the terminal state wins below. *)
      let err = try j.body ~member i; None with e -> Some e in
      let fire_progress = ref None in
      Mutex.lock t.m;
      j.inflight <- j.inflight - 1;
      t.active.(member) <- None;
      Pool.heartbeat t.pool ~member ~site:"idle";
      (match err with
      | None -> (
        match j.state with
        | Pending | Running ->
          j.completed <- j.completed + 1;
          if
            j.completed = j.tasks && j.retry_queue = []
            && j.next >= j.tasks
          then j.state <- Done;
          fire_progress :=
            Option.map (fun p -> (p, j.completed, j.tasks)) j.progress
        | Done | Failed _ | Cancelled | Timed_out -> ())
      | Some e -> (
        match j.state with
        | Pending | Running -> (
          let attempt = 1 + (try Hashtbl.find j.attempts i with Not_found -> 0) in
          Hashtbl.replace j.attempts i attempt;
          match j.retry with
          | Some p when attempt < p.Resilience.max_attempts
                        && p.Resilience.transient e ->
            let delay =
              Resilience.backoff p ~attempt
                ~seed:((j.id * 8191) + i)
            in
            j.retry_queue <- j.retry_queue @ [ i ];
            j.not_before <-
              Float.max j.not_before (Resilience.now () +. delay);
            journal j
              (Printf.sprintf
                 "task %d attempt %d/%d failed (%s); retry in %.1fms" i
                 attempt p.Resilience.max_attempts (Printexc.to_string e)
                 (delay *. 1000.))
          | _ ->
            j.state <- Failed e;
            seal j;
            journal j
              (Printf.sprintf "task %d attempt %d failed permanently (%s)" i
                 attempt (Printexc.to_string e)))
        | Done | Failed _ | Cancelled | Timed_out -> ()));
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      (* the progress callback runs strictly outside the claim lock, so
         it may re-enter the scheduler (cancel, submit, status) without
         deadlocking; an exception from it fails the job like a body
         exception *)
      (match !fire_progress with
      | None -> ()
      | Some (p, done_, total) -> (
        match p ~done_ ~total with
        | () -> ()
        | exception e ->
          Mutex.lock t.m;
          (match j.state with
          | Pending | Running | Done ->
            j.state <- Failed e;
            seal j;
            journal j
              (Printf.sprintf "progress callback failed (%s)"
                 (Printexc.to_string e))
          | Failed _ | Cancelled | Timed_out -> ());
          Condition.broadcast t.cv;
          Mutex.unlock t.m))
  done

let run t =
  Mutex.lock t.m;
  if t.running then begin
    Mutex.unlock t.m;
    invalid_arg "Scheduler.run: already running"
  end;
  (match find_cycle t.jobs with
  | Some w ->
    (* reject the whole submitted graph (nothing has started, so there
       is nothing partial to preserve) and leave the scheduler empty and
       reusable *)
    List.iter
      (fun j ->
        if not (terminal j) then begin
          j.state <- Cancelled;
          seal j
        end)
      t.jobs;
    t.jobs <- [];
    Mutex.unlock t.m;
    raise (Dependency_cycle w)
  | None -> ());
  t.running <- true;
  t.stuck <- None;
  if Array.length t.active <> Pool.size t.pool then
    t.active <- Array.make (Pool.size t.pool) None
  else Array.fill t.active 0 (Array.length t.active) None;
  if
    t.ticker = None
    && (t.watchdog <> None
       || List.exists
            (fun j -> j.deadline <> None || j.retry <> None)
            t.jobs)
  then t.ticker <- Some (Domain.spawn (fun () -> ticker_loop t));
  Mutex.unlock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      t.running <- false;
      Mutex.unlock t.m;
      (match t.ticker with
      | Some d ->
        Domain.join d;
        t.ticker <- None
      | None -> ()))
    (fun () -> Pool.run_team t.pool (fun member -> worker t member));
  Mutex.lock t.m;
  let stuck = t.stuck in
  t.jobs <- List.filter (fun j -> not (settled j)) t.jobs;
  Mutex.unlock t.m;
  match stuck with Some w -> raise (Dependency_cycle w) | None -> ()

let run_tasks t ?(name = "job") ?priority ?deadline ?retry ?lanes n body =
  (match deadline with
  | Some d when d <= 0.0 ->
    (* a budget already spent: time the job out before it claims a task *)
    raise (Resilience.Deadline_exceeded { job = name; elapsed = 0.0 })
  | _ -> ());
  if n > 0 then begin
    let j = submit t ~name ?priority ?deadline ?retry ?lanes ~tasks:n body in
    run t;
    match j.state with
    | Done -> ()
    | Failed e -> raise e
    | Timed_out ->
      raise
        (Resilience.Deadline_exceeded
           { job = j.name; elapsed = Resilience.now () -. j.submitted })
    | Cancelled when j.shed ->
      raise (Resilience.Shed { job = j.name; priority = j.priority })
    | Cancelled ->
      failwith
        (Printf.sprintf "Scheduler.run_tasks: job %S was cancelled" j.name)
    | Pending | Running -> assert false
  end

(* Chunking policy ------------------------------------------------------ *)

(* The one lane-packing computation (previously triplicated across
   Campaign, Equiv and Testbench): split [total] cases into chunks of
   [lanes - reserved] so each chunk fills one engine instance's lanes,
   minus any lanes the client keeps for itself (Campaign reserves lane 0
   of every chunk for the golden run). *)
type chunks = { count : int; per_chunk : int; bounds : int -> int * int }

let chunking ?(reserved = 0) ~lanes total =
  if reserved < 0 then invalid_arg "Scheduler.chunking: reserved must be >= 0";
  if lanes <= reserved then
    invalid_arg
      (Printf.sprintf
         "Scheduler.chunking: lanes (%d) must exceed reserved lanes (%d)"
         lanes reserved);
  let per_chunk = lanes - reserved in
  let count = if total <= 0 then 0 else (total + per_chunk - 1) / per_chunk in
  {
    count;
    per_chunk;
    bounds =
      (fun c ->
        let lo = c * per_chunk in
        (lo, min total (lo + per_chunk)));
  }
