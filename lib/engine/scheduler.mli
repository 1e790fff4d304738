(** The engine's one fan-out call over a {!Hydra_parallel.Pool} domain
    team.

    Every client — {!Hydra_verify.Campaign}, {!Hydra_verify.Equiv},
    {!Hydra_verify.Fault}, {!Testbench.run_batched}, {!Sharded} and the
    bench harness — runs its chunks through {!run_tasks}, and this is
    the only module that drives {!Hydra_parallel.Pool.run_team}.  The
    synchronous model makes the chunks independent (paper section 4.3),
    so a fan-out is just "run [n] independent tasks on the team": team
    members claim task indices from one atomic counter until none are
    left.

    The [member] index passed to every task body identifies the claiming
    team member (0 .. {!domains} - 1): engine clients build one replica
    per member (e.g. [Sharded.of_base ~scheduler]) and index replicas by
    it. *)

type t

val create : ?domains:int -> unit -> t
(** A scheduler owning a fresh pool of [?domains] total parallelism
    (default {!Hydra_parallel.Pool.create}'s).  {!shutdown} joins it. *)

val domains : t -> int
(** Team size = {!Hydra_parallel.Pool.size} of the pool. *)

val run_tasks :
  t ->
  ?name:string ->
  ?deadline:float ->
  ?retry:Resilience.retry ->
  int ->
  (member:int -> int -> unit) ->
  unit
(** [run_tasks t n body] runs [body ~member i] once for every task
    [0 <= i < n] on the team and returns when all are done.

    A body exception that [?retry] classifies transient is retried on
    the same member, after its {!Resilience.backoff}, up to the policy's
    [max_attempts].  Any other failure is permanent: members stop
    claiming new tasks, in-flight bodies finish, and the first permanent
    failure is re-raised in the caller.

    [?deadline] is a wall-clock budget in seconds from the call.  Once
    it passes no member claims another task (a backoff is cut short at
    it), and if any task did not complete before it, [run_tasks] raises
    {!Resilience.Deadline_exceeded} (named [?name], default ["job"]).  A
    [?deadline <= 0] — a budget already spent — raises before any task
    is claimed, so clients pass what is left of a larger budget
    directly.  The scheduler stays reusable after every outcome. *)

val shutdown : t -> unit
(** Join the pool.  The scheduler must not be used afterwards. *)

(** {2 Chunking policy} *)

(** How [total] independent cases pack into the lanes of one engine
    instance: [count] chunks of at most [per_chunk] cases, chunk [c]
    covering cases [bounds c = (lo, hi)] (half-open). *)
type chunks = { count : int; per_chunk : int; bounds : int -> int * int }

val chunking : ?reserved:int -> lanes:int -> int -> chunks
(** The one lane-packing computation shared by Campaign, Equiv and
    Testbench: pack [total] cases [per_chunk = lanes - reserved] at a
    time, where [?reserved] (default 0) lanes per chunk stay with the
    client — Campaign reserves lane 0 of every chunk for the golden
    (fault-free) run.  Raises [Invalid_argument] unless
    [0 <= reserved < lanes]. *)
