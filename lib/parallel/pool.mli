(** A reusable domain pool with a chunk-stealing [parallel_for] and a
    long-running [run_team] mode — the substrate for parallel circuit
    simulation (paper section 4.3).

    The calling domain participates in every call, so a pool of size [n]
    spawns [n - 1] worker domains. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of total parallelism [domains]
    (default: [Domain.recommended_domain_count], capped at 8). *)

val size : t -> int
(** Total parallelism, caller included. *)

val parallel_for : ?chunk:int -> t -> int -> int -> (int -> unit) -> unit
(** [parallel_for t lo hi f] runs [f i] for every [lo <= i < hi], possibly
    concurrently, and returns once all are done (a barrier).  [f] must be
    safe to run concurrently for distinct [i].  Small ranges run inline.
    The first exception raised by [f] (if any) is re-raised in the
    caller. *)

val run_team : t -> (int -> unit) -> unit
(** [run_team t f] runs [f member] once for every [0 <= member < size t],
    all concurrently; the caller takes one membership.  This is the
    long-running-task mode {!Hydra_engine.Scheduler} runs its team in
    (the engine library's only caller): each body owns private state
    (indexed by its membership) and drains a shared work queue, and the
    only synchronization is the final join.
    [f] must be safe to run concurrently for distinct memberships; a fast
    member may execute more than one membership sequentially.  The first
    exception raised (if any) is re-raised in the caller after the
    join. *)

val parallel_sum : t -> int -> int -> (int -> int) -> int
(** Parallel sum of [f i] over the range, accumulated with per-chunk
    partial sums (O(chunks) auxiliary space). *)

val heartbeat : t -> member:int -> site:string -> unit
(** Stamp member [member]'s heartbeat slot with the current wall clock
    and [site] (a short label of what it is working on — typically the
    claimed job's name).  Lock-free: the slot is owned by its member.
    Out-of-range members are ignored (a body running on a replica index
    beyond the team is harmless). *)

val last_beat : t -> int -> float * string
(** [(time, site)] of the member's last {!heartbeat} ([create] stamps
    every slot, so this never reads uninitialized).  Reads race member
    writes by design; a watchdog tolerates one-update staleness. *)

val shutdown : t -> unit
(** Join all workers.  The pool must not be used afterwards. *)

val default_domains : unit -> int
