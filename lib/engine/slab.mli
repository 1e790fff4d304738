(** Multi-word slab simulator — the word-parallel runtime: levelized,
    compiled, K words per signal, breaking the 62-lane ceiling of one
    tagged int.

    Every signal owns [k] consecutive 62-lane words in one flat int-array
    slab, so a single settle pass advances [62 * k] independent
    simulation lanes — 62 at [k = 1] (the "wide" engine,
    {!Compiled_wide}), 496 at the default [k = 8], 992 at [k = 16] —
    while the per-gate index traffic (the dst/src loads that bound the
    k = 1 pass) is amortized over the whole K-word run.  Each levelized
    rank is compiled ({!Kernel}) into one flat descriptor of per-kind
    index tuples, so the inner loops are branch-free; the netlist is
    re-laid-out rank-major, and common 2-level patterns (and-or, or-and,
    xor chains) run as fused tuples.  The engine only checks the
    descriptors and scales a copy of them by [k] at creation.

    A {!settle} runs the compiled kernel of every levelized rank once,
    in rank order, and a {!tick} latches every dff: the circuit is one
    synchronous machine and the engine simulates it as one.  Every rank
    runs through one C kernel (AVX2 / NEON when the build host supports
    them, portable scalar C otherwise, specialised at k = 1; see
    {!kernel_flavor}), from one flat descriptor per rank.  The stub
    trusts its descriptors, so it is not exposed: this module builds and
    range-checks every descriptor and buffer it is given.

    A {e cone} ({!fanout_cone}, {!settle_cone}) runs the same stub over
    per-rank descriptors of just a component set: a fault campaign's
    chunk settles only its faults' fanout cone and reads golden values
    at the cone's frontier. *)

type t

val create : ?k:int -> ?gating:bool -> Hydra_netlist.Netlist.t -> t
(** [of_program (Kernel.compile ~k nl)]: the default compile flags.
    [?k] (default 8, must be >= 1) words per signal — [62 * k] lanes per
    settle pass.  [?gating] is accepted and ignored; it remains only
    until the workload benchmark stops passing it (ROADMAP item 1, the
    benchmark change, removes it).  For other compile flags, build with
    {!of_program}.  Raises {!Hydra_netlist.Levelize.Combinational_cycle}
    on an invalid circuit. *)

val of_program : Kernel.program -> t
(** Build an engine over an already-compiled {!Kernel.program} (from
    {!Kernel.compile}, {!Kernel.patch} or {!Cache}), skipping every
    compile-time pass; the slab's K is the program's [k].  Only the
    per-instance value state and the engine's own scaled copies of the
    rank descriptors and dff indices are built, so later writes to the
    program do not reach the engine.  Every rank descriptor's header
    counts must match its length, every index in a descriptor and every
    [consts], [dffs] and [dff_src] entry must lie in
    [[0, Kernel.size prog)], [dff_src] and [dff_init] must have one
    entry per dff, and [k] must be >= 1; otherwise raises
    [Invalid_argument] naming the offending field (for a descriptor: the
    rank, and the gate kind with the index or the header counts). *)

val program : t -> Kernel.program
(** The shared compiled program this engine runs. *)

val k : t -> int
val words : t -> int
(** = {!k}: words per signal (the {!Engine_intf.S} accessor). *)

val lanes : t -> int
(** [62 * k]: independent lanes per settle pass. *)

val kernel_flavor : unit -> string
(** The code path this build compiled into the C rank kernel:
    ["avx2"], ["neon"] or ["scalar-c"] ([HYDRA_SIMD=off] at build time
    forces ["scalar-c"]). *)

val replicate : t -> t
(** Fresh engine over the same compiled circuit: shares the immutable
    scaled index arrays, owns its value slab (at power-up).
    Safe to run concurrently with the original in another domain. *)

val reset : t -> unit

val reset_lanes : t -> word:int -> int -> unit
(** [reset_lanes t ~word mask] is {!reset} restricted to the lanes set in
    [mask] of word [word]: those lanes of every input return to 0 and of
    every dff to its power-up bit; all other lanes keep their values.
    Gate outputs in the reset lanes follow at the next {!settle}.  Raises
    [Invalid_argument] unless [0 <= word < k]. *)

val set_input : t -> string -> int -> unit
(** Set word 0 of an input (lane [l] = bit [l]; masked to the 62
    lanes). *)

val set_input_word : t -> string -> int -> int -> unit
(** [set_input_word t name w v]: set word [w] (0-based, [< k]) of an
    input to the packed word [v]. *)

val set_input_lane : t -> string -> int -> bool -> unit
(** Set one global lane ([0 <= lane < 62 * k]): word [lane / 62], bit
    [lane mod 62]. *)

val settle : t -> unit
val tick : t -> unit
val step : t -> unit

val output : t -> string -> int
(** Word 0 of an output. *)

val output_word : t -> string -> int -> int
val output_lane : t -> string -> int -> bool
(** Global lane of an output, [0 <= lane < 62 * k]. *)

val peek : t -> int -> int
(** Word 0 of a component by its post-relayout index
    (see {!netlist}).  The word of a gate absorbed into a fused kernel
    (see {!fused_gates}) is never written and reads as stale; every
    other component is exact.  {!peek}, {!peek_word}, {!poke} and
    {!poke_word} raise [Invalid_argument] on a component index outside
    the netlist. *)

val peek_word : t -> int -> int -> int
val poke : t -> int -> int -> unit
val poke_word : t -> int -> int -> int -> unit
(** [poke_word t i w v] sets word [w] of a component by index — the
    hashtable-free counterpart of {!set_input_word} for hot loops that
    resolved {!netlist} port indices up front.  Only meaningful on
    inputs and dffs (a poked gate output is overwritten by the next
    {!settle}). *)

type force = {
  f_site : int;  (** component index in {!netlist} *)
  force0 : int array;  (** per word: lanes driven to 0 *)
  force1 : int array;  (** per word: lanes driven to 1 (wins) *)
  flip : int array;  (** per word: lanes inverted, after the stuck masks *)
}
(** A per-lane value override applied at one component's output during
    every {!settle} — the runtime fault-injection hook used by
    {!Hydra_verify.Campaign}.  Each mask is one word per slab word
    (length [k]).  The arrays are mutable in place so a campaign can
    re-seed per-cycle faults without re-registering. *)

val set_forces : t -> force array -> unit
(** Replace the registered force set.  Forces apply at the rank boundary
    where the forced component's word becomes visible to its readers:
    before rank 0 for inputs, dffs and constants; right after the
    component's own rank for gates and outports.  A dropped force's
    last value stays until its site is recomputed: a gate at the next
    {!settle}, a dff at the next {!tick}, an input when it is next
    written, a constant at {!reset}.  Raises [Invalid_argument] on a fused
    engine (compile with [~fuse:false]), on a mask array whose length is
    not [k], and — descriptively — on an out-of-range site. *)

val clear_forces : t -> unit

(** {2 Cones}

    A fault can change only the components in its fanout cone.  A cone
    settle runs just the cone's gates and takes every other value the
    cone reads — its {e frontier} — from a golden {!trace}: lane 0 of
    a fault-free run, recorded by {!record_row} and broadcast to every
    lane.  When the cone is closed under fanout and every injected
    difference lies inside it, everything outside equals the golden run
    in every lane, so reads inside the cone are exact; values outside
    it are stale and must not be read. *)

type cone
(** A cone program: per levelized rank, one C-stub descriptor of the
    member gates and outports, and the frontier — the non-member
    sources of members (dff members included), less inports and
    constants, which the caller keeps golden itself.  A cone lives in
    the engine instance that built it and stays valid until that
    instance builds its next one; building needs an engine compiled
    with [~fuse:false]. *)

val fanout_cone : t -> int array -> cone option
(** [fanout_cone t seeds]: the cone of the components reachable from
    [seeds] along driver-to-reader edges of {!netlist}, dff inputs
    included (the seeds themselves included), or [None] when there are
    more than an eighth of the circuit's components — a fixed bound, so
    a cone always costs a small share of a full settle.  The walk reads
    {!Hydra_netlist.Netlist.fanout}, built on the first call and shared
    by every replica of the engine, and so is a memo of single seeds
    whose closure alone is too large: a set containing one is refused
    without a walk.  Raises [Invalid_argument] on an out-of-range seed and on a
    fused engine. *)

val in_cone : t -> cone -> int -> bool
(** Whether a component is a member.  Raises [Invalid_argument] when
    the cone is not [t]'s current one. *)

type trace
(** A golden trace: per cycle, one bit of every component — lane 0 of
    a fault-free run, 62 components per word. *)

val trace : t -> cycles:int -> trace
(** An all-zero trace of [cycles] rows for [t]'s circuit. *)

val record_row : t -> trace -> int -> unit
(** [record_row t tr c] stores lane 0 of every component as row [c].
    Raises [Invalid_argument] on a cycle outside the trace or a trace
    made for another circuit. *)

val golden_bit : trace -> int -> int -> bool
(** [golden_bit tr c i]: component [i]'s bit in row [c].  Raises
    [Invalid_argument] outside the trace. *)

val settle_cone : t -> cone -> trace -> int -> unit
(** [settle_cone t c tr cycle] writes each frontier component's bit of
    row [cycle] to every lane, then settles the member ranks
    with the force slots at {!settle}'s rank boundaries.  Inputs and
    constants outside the cone must already hold golden values, and
    forces must sit on members.  Raises [Invalid_argument] when the cone is not [t]'s current
    one, or as {!record_row} on the trace and cycle. *)

(** {2 Lane passes}

    One C pass over a set of components answers, for every lane at
    once, whether it differs from lane 0 or latches a change: a fault
    campaign's per-cycle questions, one lane mask per slab word. *)

type sites
(** Components of one engine's circuit, range-checked and pre-scaled
    once, for {!diff_lanes} and {!latch_lanes}. *)

val sites : t -> int array -> sites
(** [sites t a]: the components [a] (duplicates allowed), usable on [t]
    and its replicas.  Raises [Invalid_argument] naming the site on an
    index outside the netlist. *)

val diff_lanes : t -> sites -> int array -> unit
(** [diff_lanes t s out] sets [out.(w)], for every word [w < k], to the
    lanes of word [w] that differ from lane 0 at some site of [s]: the
    OR over the sites of word [w] xor lane 0's bit broadcast, masked to
    the 62 lanes (lane 0 itself never shows).  Raises [Invalid_argument]
    when [out] does not have [k] words or [s] was made for another
    circuit. *)

val latch_lanes : t -> dffs:sites -> srcs:sites -> int array -> unit
(** [latch_lanes t ~dffs ~srcs out] sets [out.(w)] to the OR over [j]
    of word [w] of the [j]th dff xor word [w] of the [j]th source:
    after a {!settle}, with the dffs' drivers as [srcs], the lanes where
    some dff latches a change at the next {!tick}.  Raises
    [Invalid_argument] as {!diff_lanes}, and when [srcs] and [dffs]
    differ in length. *)

val cycle : t -> int
val fused_gates : t -> int

val netlist : t -> Hydra_netlist.Netlist.t
(** The netlist actually compiled (post-relayout). *)

val run_packed :
  t -> inputs:(string * int list) list -> cycles:int -> (string * int) list list
(** Whole packed simulation from power-up: per input, one packed word per
    cycle (shorter streams padded with 0), broadcast to all [k] words (so
    every word simulates the same 62 streams); returns one row of word-0
    outputs per cycle — the same rows whatever [k]. *)

val run_vectors : t -> bool array array -> bool array array
(** Batched combinational testbench, [62 * k] vectors per settle pass:
    vector [j] of a pass rides word [j / 62], bit [j mod 62]. *)

val engine : int -> (module Engine_intf.S)
(** [engine k]: this engine as a first-class {!Engine_intf.S} whose
    [create] is [create ~k] with the default compile options — the
    handle {!Testbench}/{!Equiv} entry points take.  The handle's [name]
    is ["slab(k=N)"]. *)
