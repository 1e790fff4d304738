(** Domain-sharded word-parallel simulation: a {!Slab} engine multiplied
    by core count.

    A replica set over a {!Scheduler} team: each member owns a private,
    persistent replica of a base engine (shared immutable compiled
    arrays, cache-line padded private state), and every fan-out is one
    {!Scheduler.run_tasks} job whose tasks run on the claiming member's
    replica — no per-cycle or per-level barriers, synchronization at
    batch granularity only.  Peak parallelism: [62 x k x domains]
    independent simulations per settle pass, for a base engine of any
    [k]. *)

type t

val create :
  ?optimize:bool ->
  ?relayout:bool ->
  ?fuse:bool ->
  ?certify:bool ->
  ?domains:int ->
  ?scheduler:Scheduler.t ->
  Hydra_netlist.Netlist.t ->
  t
(** Compile once at k = 1 (the 62-lane configuration), replicate per
    scheduler member.  [?optimize] / [?relayout] / [?fuse] / [?certify]
    as in {!Slab.create} (the base engine is compiled — and its
    pre-passes certified — once; replicas share it).  Scheduler options
    as in {!of_base}. *)

val of_base : ?domains:int -> ?scheduler:Scheduler.t -> Slab.t -> t
(** Wrap a compiled base engine of any [k]: replica 0 {e is} the base;
    members 1..n-1 get private {!Slab.replicate}s.  [?scheduler] shares
    an existing team (not shut down by {!shutdown}); otherwise a
    scheduler of [?domains] (default
    {!Hydra_parallel.Pool.default_domains}) is created and owned. *)

val domains : t -> int
(** Team size = replica count. *)

val replica : t -> int -> Slab.t
(** [replica t m] is member [m]'s private engine. *)

val netlist : t -> Hydra_netlist.Netlist.t

val k : t -> int
(** Words per signal of the base engine. *)

val lanes : t -> int
(** Total lanes per job: [62 x k]. *)

val dispatch : t -> int -> (Slab.t -> int -> unit) -> unit
(** [dispatch t n f] runs [f sim job] for every [0 <= job < n] as one
    {!Scheduler.run_tasks} job, on the claiming member's private
    replica.  [f] must be safe to run concurrently on distinct replicas;
    jobs are claimed in order but finish in any order.  Returns when all
    jobs are done (the only barrier) and re-raises a failed job's
    exception. *)

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
    port-list order), row [v] of the result its settled outputs.  Each
    {!lanes}-vector pass is one sharded job of {!Slab.run_vectors},
    which also raises its arity error. *)

val step_batches : t -> batches:int -> cycles:int -> int
(** Raw stepping throughput for benchmarks: [batches] independent jobs,
    each reset + one packed input word per port + [cycles] steps, no
    per-cycle output materialization.  Returns an output checksum (so
    the work cannot be optimized away). *)

val shutdown : t -> unit
(** Shut down the owned scheduler (a shared [?scheduler] is left
    running).  The sharded engine must not be used afterwards. *)
