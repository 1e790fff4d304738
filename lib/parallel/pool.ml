(* A small domain pool with a chunk-stealing parallel-for and a
   long-running team mode.

   This is the substrate for parallel circuit simulation (paper section
   4.3): all gate evaluations within one levelized rank are independent and
   can run simultaneously; the pool provides two primitives over one set of
   reusable worker domains:

   - [parallel_for]: "evaluate these N independent things on all cores"
     with a barrier at the end — fine-grained, used per rank or per chunk.
   - [run_team]: "run one long-lived task body per pool member" — the
     substrate of the job scheduler ({!Hydra_engine.Scheduler}), where
     each member owns private simulator state and drains a shared work
     queue until it is empty, synchronizing only when the whole team
     finishes.

   Workers are OCaml 5 domains created once and reused across calls
   (domain spawn is far too expensive per simulation cycle).  Work is
   handed out in fixed-size chunks claimed from an atomic counter, so load
   imbalance between gates of different cost evens out.  The calling
   domain participates, so a pool of [n] domains uses [n] cores with
   [n - 1] spawned workers. *)

type job = {
  body : int -> unit;
  hi : int;
  chunk : int;
  next : int Atomic.t;
  mutable pending : int;  (* workers that have not finished this job *)
  exn : exn option Atomic.t;
      (* first exception raised by any chunk; CAS keeps the publication
         race between domains well defined *)
}

type t = {
  size : int;  (* total parallelism including the caller *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable job : job option;
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
  (* Heartbeat slots, one per member: [beat_time.(m)] is the wall-clock
     of member [m]'s last {!heartbeat}, [beat_site.(m)] a short label of
     where it was (typically the job it is working).  Single writer per
     slot (the member itself), racy lock-free readers (the watchdog): a
     torn read can only mis-age a beat by one update, never corrupt. *)
  beat_time : float array;
  beat_site : string array;
}

let default_domains () = max 1 (min 8 (Domain.recommended_domain_count ()))

let record_exn job e =
  (* keep the first exception only; losers of the race drop theirs *)
  ignore (Atomic.compare_and_set job.exn None (Some e))

let run_chunks job =
  try
    let rec loop () =
      let lo = Atomic.fetch_and_add job.next job.chunk in
      if lo < job.hi then begin
        let hi = min (lo + job.chunk) job.hi in
        for i = lo to hi - 1 do
          job.body i
        done;
        loop ()
      end
    in
    loop ()
  with e -> record_exn job e

let worker t =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.shutdown) && t.generation = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.shutdown then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.mutex;
      run_chunks job;
      Mutex.lock t.mutex;
      job.pending <- job.pending - 1;
      if job.pending = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let size = match domains with Some n -> max 1 n | None -> default_domains () in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      job = None;
      shutdown = false;
      domains = [];
      beat_time = Array.make size (Unix.gettimeofday ());
      beat_site = Array.make size "idle";
    }
  in
  t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.size

(* Heartbeats: members stamp "I am alive, working on [site]" at task
   boundaries; a watchdog compares the stamps against a horizon.  The
   slot is owned by its member, so no lock is taken. *)
let heartbeat t ~member ~site =
  if member >= 0 && member < t.size then begin
    t.beat_site.(member) <- site;
    t.beat_time.(member) <- Unix.gettimeofday ()
  end

let last_beat t member =
  if member < 0 || member >= t.size then
    invalid_arg "Pool.last_beat: member out of range";
  (t.beat_time.(member), t.beat_site.(member))

let shutdown t =
  Mutex.lock t.mutex;
  t.shutdown <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Publish [job] to the workers, participate, wait for the stragglers,
   re-raise the first recorded exception.  Shared by [parallel_for] and
   [run_team]. *)
let run_job t job =
  Mutex.lock t.mutex;
  t.job <- Some job;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  (* the caller participates *)
  run_chunks job;
  Mutex.lock t.mutex;
  while job.pending > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.job <- None;
  Mutex.unlock t.mutex;
  match Atomic.get job.exn with Some e -> raise e | None -> ()

(* [parallel_for t lo hi f] runs [f i] for [lo <= i < hi] across the pool;
   returns when every index is done.  Falls back to a plain loop when the
   range is too small to be worth waking the pool. *)
let parallel_for ?(chunk = 0) t lo hi f =
  let n = hi - lo in
  if n <= 0 then ()
  else if t.size = 1 || n < 2 * t.size then
    for i = lo to hi - 1 do
      f i
    done
  else begin
    let chunk =
      if chunk > 0 then chunk else max 1 (n / (4 * t.size))
    in
    run_job t
      {
        body = (fun i -> f (lo + i));
        hi = n;
        chunk;
        next = Atomic.make 0;
        pending = t.size - 1;
        exn = Atomic.make None;
      }
  end

(* [run_team t f] runs [f member] once for every [0 <= member < size t],
   all concurrently (the caller takes one membership, the workers the
   rest).  Unlike [parallel_for] there is no small-range fallback: every
   body is expected to be long-running — typically draining a shared work
   queue with private state — and the only synchronization is the join
   when all members return.  Exceptions: first one wins, re-raised in the
   caller after the join. *)
let run_team t f =
  if t.size = 1 then f 0
  else
    (* one index per member: chunk 1 over exactly [size] indices means
       each claim is one membership; a member that finishes instantly may
       claim a second membership, which is harmless — memberships, not
       domains, own the private state *)
    run_job t
      {
        body = f;
        hi = t.size;
        chunk = 1;
        next = Atomic.make 0;
        pending = t.size - 1;
        exn = Atomic.make None;
      }

(* Convenience: sum of [f i] over a range with per-chunk partial sums —
   O(chunks) auxiliary space, not O(n).  Used by tests and benches. *)
let parallel_sum t lo hi f =
  let n = hi - lo in
  if n <= 0 then 0
  else if t.size = 1 || n < 2 * t.size then begin
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + f i
    done;
    !s
  end
  else begin
    let nchunks = min n (4 * t.size) in
    let partials = Array.make nchunks 0 in
    parallel_for ~chunk:1 t 0 nchunks (fun c ->
        let clo = lo + (c * n / nchunks) and chi = lo + ((c + 1) * n / nchunks) in
        let s = ref 0 in
        for i = clo to chi - 1 do
          s := !s + f i
        done;
        partials.(c) <- !s);
    Array.fold_left ( + ) 0 partials
  end
