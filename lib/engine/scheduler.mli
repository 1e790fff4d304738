(** Unified job-graph scheduler over one shared {!Hydra_parallel.Pool}
    domain team.

    The one fan-out substrate of the engine library: every client —
    {!Hydra_verify.Campaign}, {!Hydra_verify.Equiv},
    {!Hydra_verify.Fault}, {!Testbench.run_batched}, {!Sharded} and the
    bench harness — runs its chunks as {!run_tasks} jobs, and this is
    the only module that drives {!Hydra_parallel.Pool.run_team}.  Jobs
    carry a priority,
    dependencies, a cancellation handle and an optional progress
    callback; {!run} executes the whole graph on the team, each member
    claiming tasks from the highest-priority ready job, so independent
    jobs (a fault campaign and an equivalence sweep, say) interleave on
    one set of domains with per-job lane packing instead of competing
    pools.

    The [member] index passed to every task body identifies the claiming
    team member (0 .. {!domains} - 1): engine clients build one replica
    per member (e.g. [Sharded.of_base ~scheduler]) and index replicas by
    it.

    Resilience: jobs may carry a [?deadline] (wall-clock budget from
    submission; expiry at a chunk boundary moves the job to the terminal
    {!Timed_out} state, which cancels dependents exactly like a
    failure), a [?retry] policy (transient task failures are re-claimed
    after an exponential backoff with deterministic jitter, every
    attempt journaled in the job's {!trail}), and a [?lanes] demand
    (with an [?admission] controller on the scheduler, excess demand
    sheds the lowest-priority pending jobs).  A [?watchdog] horizon arms
    a monitor that fails the owning job of any pool member whose
    {!Hydra_parallel.Pool.heartbeat} goes stale — carrying a
    {!Resilience.Stuck_member} site witness — instead of hanging the
    team.

    Submission and [run] are intended to be driven from one thread (the
    one that owns the scheduler); task bodies and progress callbacks run
    on the team, strictly outside the scheduler's internal lock, so they
    may safely re-enter it: {!submit}, {!cancel}, {!status},
    {!checkpoint}. *)

type t

type job

exception Dependency_cycle of string list
(** Raised by {!run} when the submitted jobs' dependencies form a cycle;
    the payload is a witness: job names along the cycle, each depending
    on the next (and the last on the first). *)

exception Interrupted
(** Raised by {!checkpoint} inside a task body whose job has been
    doomed (cancelled, timed out, failed by the watchdog) — the
    cooperative-cancellation signal.  The scheduler absorbs it: the
    job's terminal state is already set and siblings are unaffected. *)

type status =
  | Pending  (** submitted, no task claimed yet *)
  | Running  (** at least one task claimed *)
  | Done  (** every task completed *)
  | Failed of exn  (** a task body (or progress callback) raised *)
  | Cancelled
      (** cancelled explicitly, transitively via a doomed dependency, or
          shed by the admission controller *)
  | Timed_out
      (** the job's [?deadline] expired before every task completed.
          Terminal, observed at chunk boundaries: in-flight task bodies
          finish (or bail at their next {!checkpoint}) but no further
          tasks are claimed, and dependents are cancelled exactly as if
          the job had failed.  {!run_tasks} surfaces it as
          {!Resilience.Deadline_exceeded}. *)

val create :
  ?domains:int ->
  ?watchdog:float ->
  ?admission:Resilience.admission ->
  unit ->
  t
(** A scheduler owning a fresh pool of [?domains] total parallelism
    (default {!Hydra_parallel.Pool.create}'s).  {!shutdown} joins it.

    [?watchdog] arms the stuck-member monitor: a pool member whose last
    heartbeat (stamped at every claim boundary, or manually via {!beat})
    is older than the horizon has its current job failed with
    {!Resilience.Stuck_member}.  Pick a horizon comfortably above the
    longest honest task body.

    [?admission] attaches an overload controller: when the declared
    [?lanes] demand of live jobs exceeds its budget, the lowest-priority
    pending not-yet-started jobs are shed (state {!Cancelled}, counted
    in the controller's stats, surfaced by {!run_tasks} as
    {!Resilience.Shed}). *)

val of_pool :
  ?watchdog:float ->
  ?admission:Resilience.admission ->
  Hydra_parallel.Pool.t ->
  t
(** A scheduler borrowing an existing pool: {!shutdown} leaves the pool
    alive (the lender owns it). *)

val pool : t -> Hydra_parallel.Pool.t
(** The team this scheduler executes on — build per-member engine
    replicas over it so [member] indices line up. *)

val domains : t -> int
(** Team size = {!Hydra_parallel.Pool.size} of {!pool}. *)

val submit :
  ?name:string ->
  ?priority:int ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?deps:job list ->
  ?deadline:float ->
  ?retry:Resilience.retry ->
  ?lanes:int ->
  t ->
  tasks:int ->
  (member:int -> int -> unit) ->
  job
(** Submit a job of [tasks] independent tasks; the body receives the
    claiming team member and the task index (0 .. tasks-1).  Higher
    [?priority] (default 0) is claimed first; ties go to the earlier
    submission.  [?deps] must all be [Done] before any task is claimed;
    a doomed dependency cancels this job.  A job with [tasks = 0] is a
    pure join point: it completes as soon as its dependencies do.
    [?progress] is called after each completed task, outside the
    scheduler lock, with the exact completion count at that moment; an
    exception from it fails the job like a body exception.

    [?deadline] is a wall-clock budget in seconds from this submission;
    see {!Timed_out}.  [?retry] re-claims tasks whose body raised a
    transient exception, after {!Resilience.backoff}; each failed
    attempt is journaled in the job's {!trail}, and attempts per task
    are capped by the policy.  [?lanes] declares the job's engine-lane
    demand to the scheduler's admission controller (no effect without
    one).  Jobs may be submitted while {!run} is executing (from task
    bodies). *)

val depend : t -> job:job -> on:job list -> unit
(** Add dependencies to a submitted job (before its first task is
    claimed, typically right after {!submit}). *)

val cancel : t -> job -> unit
(** Cancel a pending or running job: unclaimed tasks are never claimed,
    in-flight task bodies finish undisturbed (or bail at their next
    {!checkpoint}), and dependent jobs are cancelled transitively.
    Terminal jobs are left alone.  Safe to call from task bodies and
    progress callbacks (both run outside the scheduler lock); the
    scheduler and its pool stay fully reusable. *)

val checkpoint : t -> job -> unit
(** Cooperative cancellation point for long task bodies: raises
    {!Interrupted} iff the job is doomed (cancelled, timed out, or
    failed).  The scheduler treats the escape as the chunk bailing, not
    as a new failure. *)

val beat : t -> member:int -> unit
(** Re-stamp [member]'s heartbeat (keeping its current site label) from
    inside a long task body, so an honest slow chunk is not mistaken for
    a stuck one by the [?watchdog]. *)

val run : t -> unit
(** Execute every submitted job on the team until all are settled
    (Done, Failed, Cancelled or Timed_out).  Job failures do {e not}
    raise here — an exception in one job must not poison its siblings;
    inspect {!status} (and see {!run_tasks} for the one-job convenience
    that does re-raise).  Raises {!Dependency_cycle} with a witness if
    the dependency graph is cyclic; the submitted jobs are all
    cancelled, so the scheduler (and its pool) stay reusable.  While
    running, a lightweight ticker domain (spawned only when some job
    carries a deadline or retry policy, or a watchdog is armed) fires
    deadline expiries, backoff due-times and watchdog verdicts even
    when every member is parked.  After [run] returns the scheduler is
    empty and reusable. *)

val status : t -> job -> status

val job_name : job -> string

val trail : t -> job -> string list
(** The job's journal, oldest first: retry attempts with their backoff,
    deadline expiry, watchdog verdicts, shed/cancellation events — each
    stamped [+elapsed] relative to submission.  Empty for a job that
    settled without incident. *)

val run_tasks :
  t ->
  ?name:string ->
  ?priority:int ->
  ?deadline:float ->
  ?retry:Resilience.retry ->
  ?lanes:int ->
  int ->
  (member:int -> int -> unit) ->
  unit
(** [run_tasks t n body] = submit one job of [n] tasks, {!run}, and
    re-raise the job's failure (if any) in the caller — the fan-out
    every engine client uses.  A {!Timed_out} job raises
    {!Resilience.Deadline_exceeded}, and so does a [?deadline <= 0] — a
    budget already spent — before any task is claimed (where {!submit}
    rejects it as [Invalid_argument]), so clients pass what is left of
    a larger budget directly.  A job shed by the admission controller
    raises {!Resilience.Shed}.  Note that {!run} drains {e all} pending
    jobs, so other submissions ride along on the same team. *)

val shutdown : t -> unit
(** Join the pool iff this scheduler owns it ({!create}); a borrowed
    pool ({!of_pool}) is left to its owner. *)

(** {2 Chunking policy} *)

(** How [total] independent cases pack into the lanes of one engine
    instance: [count] chunks of at most [per_chunk] cases, chunk [c]
    covering cases [bounds c = (lo, hi)] (half-open). *)
type chunks = { count : int; per_chunk : int; bounds : int -> int * int }

val chunking : ?reserved:int -> lanes:int -> int -> chunks
(** The one lane-packing computation shared by Campaign, Equiv and
    Testbench (each used to hand-roll its own): pack [total] cases
    [per_chunk = lanes - reserved] at a time, where [?reserved]
    (default 0) lanes per chunk stay with the client — Campaign reserves
    lane 0 of every chunk for the golden (fault-free) run.  Raises
    [Invalid_argument] unless [0 <= reserved < lanes]. *)
