(** Compiled-circuit cache: compile once, serve many.

    Entries are keyed by {!Hydra_netlist.Netlist.digest} (a content
    hash, stable across serialization round-trips and component
    renumberings) × engine flavor × the compile flags that shape the
    program ([optimize] for {!slab}, [relayout], [fuse], [k]).
    Because engine clients address components by index, a digest hit is
    additionally verified by structural equality against the stored
    netlist — index-permuted twins (and hash collisions) get separate
    entries, so a collision can cost a duplicate entry but never a wrong
    program.

    The slab flavor caches one pristine exemplar per key and returns
    replicas (fresh power-up value state over the shared compiled
    arrays), so a warm {!slab} (or {!wide}) hit skips both compilation and
    building the rank descriptors.  Eviction is LRU with hit, miss and
    eviction counters; all operations are mutex-guarded and safe to call
    from scheduler task bodies on any domain (compilation itself runs
    outside the lock). *)

type t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : ?capacity:int -> unit -> t
(** [?capacity] (default 64, >= 1) bounds the total entry count across
    all flavors; least-recently-used entries are evicted past it. *)

val shared : unit -> t
(** One process-wide cache (default capacity) for clients without their
    own plumbing. *)

val compile :
  t -> ?relayout:bool -> ?fuse:bool -> ?k:int -> Hydra_netlist.Netlist.t ->
  Kernel.program
(** As {!Kernel.compile} (same defaults), through the cache. *)

val wide : t -> Hydra_netlist.Netlist.t -> Slab.t
(** The 62-lane engine ({!Compiled_wide.create} with its defaults)
    through the cache: [slab ~k:1], so it shares that flavor's entries.
    No library code calls it (use [slab ~k:1]); it remains only for the
    workload benchmark ([bench/workloads/]) until that benchmark moves
    to [slab ~k:1].  A replica of the cached exemplar, at power-up, safe
    to run concurrently with every other replica.  The underlying
    program is cached under the "program" flavor and shared with
    {!compile} calls using the same flags, so each counts its own
    hit/miss. *)

val slab :
  t ->
  ?k:int ->
  ?gating:bool ->
  ?optimize:bool ->
  ?relayout:bool ->
  ?fuse:bool ->
  Hydra_netlist.Netlist.t ->
  Slab.t
(** [Slab.of_program] of {!compile} with the same flags ([?k] default
    8), through the cache.  [~optimize:true] (default false) compiles
    [Hydra_netlist.Optimize.optimize nl] instead, whose program is then
    cached under the optimized netlist.  [?gating] is accepted and
    ignored, like {!Slab.create}'s.  [?optimize] and [?gating] remain
    only until the workload benchmark stops passing them (ROADMAP item
    1, the benchmark change, removes them). *)

val stats : t -> stats
(** Cumulative counters plus the current entry count.  Note {!wide} and
    {!slab} consult the cache twice on a cold netlist (program + engine
    flavor), so one cold engine build counts two misses. *)

val clear : t -> unit
(** Drop every entry (counters keep accumulating; [entries] resets). *)

val set_fault_hook : t -> (string -> unit) option -> unit
(** Install (or remove, with [None]) a chaos-injection hook, called
    outside the cache lock at the lookup and insert sites with a site
    label ("lookup" / "insert").  An exception it raises propagates to
    the caller exactly like a build failure; the cache's tables and
    counters stay consistent regardless.  For the chaos harness —
    production code leaves it unset. *)
