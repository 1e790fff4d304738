(** Domain-sharded word-parallel simulation: a {!Slab} engine multiplied
    by core count.

    Each pool member owns a private, persistent replica of a base engine
    (shared immutable compiled arrays, cache-line padded private state)
    and drains independent lane-batches from an atomic work queue in
    {!Hydra_parallel.Pool.run_team} mode — no per-cycle or per-level
    barriers, synchronization at batch granularity only.  Peak
    parallelism: [62 x k x domains] independent simulations per settle
    pass, for a base engine of any [k]. *)

type t

val create :
  ?optimize:bool ->
  ?relayout:bool ->
  ?fuse:bool ->
  ?certify:bool ->
  ?domains:int ->
  ?pool:Hydra_parallel.Pool.t ->
  Hydra_netlist.Netlist.t ->
  t
(** Compile once at k = 1 (the 62-lane configuration, as
    {!Compiled_wide.create}), replicate per pool member.  [?optimize] /
    [?relayout] / [?fuse] / [?certify] as in {!Slab.create} (the base
    engine is compiled — and its pre-passes certified — once; replicas
    share it).  Pool options as in {!of_base}. *)

val of_base : ?domains:int -> ?pool:Hydra_parallel.Pool.t -> Slab.t -> t
(** Wrap a compiled base engine of any [k]: replica 0 {e is} the base;
    members 1..n-1 get private {!Slab.replicate}s.  [?pool] shares an
    existing pool (not shut down by {!shutdown}); otherwise a pool of
    [?domains] (default {!Hydra_parallel.Pool.default_domains}) is
    created and owned. *)

val pool : t -> Hydra_parallel.Pool.t
(** The pool the replicas are aligned with — hand it to
    {!Scheduler.of_pool} to drive this engine's members from a job
    graph. *)

val domains : t -> int
(** Pool size = replica count. *)

val base : t -> Slab.t
(** Replica 0 — usable directly as an ordinary engine between sharded
    jobs (never concurrently with one). *)

val replica : t -> int -> Slab.t
(** [replica t m] is member [m]'s private engine. *)

val netlist : t -> Hydra_netlist.Netlist.t

val k : t -> int
(** Words per signal of the base engine. *)

val lanes : t -> int
(** Total lanes per job: [62 x k]. *)

val run_tasks : t -> int -> (member:int -> int -> unit) -> unit
(** [run_tasks t n f] runs [f ~member job] for every [0 <= job < n]:
    members drain jobs from one atomic counter, each passing its member
    index so callers can keep their own per-member state (a second
    engine's replicas, accumulators) race-free.  [f] must be safe to run
    concurrently for distinct members; jobs are claimed in order but
    finish in any order.  Returns when all jobs are done (the only
    barrier). *)

val dispatch : t -> int -> (Slab.t -> int -> unit) -> unit
(** [dispatch t n f] runs [f sim job] for every job on the claiming
    member's private replica — {!run_tasks} specialized to the common
    case. *)

val run_batches :
  t ->
  batches:(string * int list) list array ->
  cycles:int ->
  (string * int) list list array
(** Independent sequential lane-batches on persistent replicas: element
    [b] of the result is {!Slab.run_packed} of [batches.(b)]. *)

val run_vectors : t -> bool array array -> bool array array
(** Batched combinational testbench across lanes and domains: row [v] of
    the argument is one test vector (one bool per declared input, in
    port-list order), row [v] of the result its settled outputs.
    {!lanes}-vector passes are the sharded jobs. *)

val step_batches : t -> batches:int -> cycles:int -> int
(** Raw stepping throughput for benchmarks: [batches] independent jobs,
    each reset + one packed input word per port + [cycles] steps, no
    per-cycle output materialization.  Returns an output checksum (so
    the work cannot be optimized away). *)

val shutdown : t -> unit
(** Shut down the owned pool (a shared [?pool] is left running).  The
    sharded engine must not be used afterwards. *)
