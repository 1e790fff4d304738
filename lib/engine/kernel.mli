(** Compile-time plumbing of the word-parallel engine.

    {!Slab} (K consecutive 62-lane words per signal; k = 1 is the
    62-lane {!Compiled_wide}) runs every levelized rank through one C
    stub that walks a flat descriptor; this module is the front end that
    writes those descriptors.  [compile] runs the optional [?relayout]
    pre-pass, levelizes once (a re-layout's ranks are its input's levels
    carried through its permutation), plans kernel fusion, and writes
    one descriptor per levelized rank.  Every member of a rank is
    independent of the others, so a rank is the unit of evaluation: an
    engine runs one descriptor per rank, in rank order.  The resulting
    {!program} is immutable and engine-agnostic: engines layer their own
    value state (one word or K words per component) on top of it and may
    share one program between many replicas.

    {2 The rank descriptor}

    This is the one definition of the layout the C stub
    ([kernel_stubs.c]) walks.  A rank descriptor is an [int array]:

    {v
    [ slot 0 | n_inv n_and n_or n_xor n_andor n_orand n_xor3 n_out |
      n_inv (dst, src) | n_and (dst, s0, s1) | ... | n_out (dst, src) ]
    v}

    Slot 0 belongs to the engine (0 in a {!program}; {!Slab} writes its
    K there).  Slots [1 .. n_kinds] hold one tuple count per kind, in
    {!kind_names} order.  From slot {!header} on come the tuples, kind
    by kind in that order, each a destination followed by
    [arity.(kind)] sources:

    - [inv]: dst = not src; [and], [or], [xor]: dst = s0 op s1;
    - [andor]: dst = (a & b) | (c & d);
    - [orand]: dst = (a & b) | c;
    - [xor3]: dst = a ^ b ^ c;
    - [out]: an outport, dst = src (a word copy).

    Indices are component numbers of {!program.netlist}; {!Slab}'s copy
    scales them by K.  A descriptor holds exactly
    [header + sum (count * (1 + arity))] words.  Every source of a
    rank's tuple settles at a strictly lower rank (a fused tuple reads
    the consumed inner gate's sources, which settle earlier still), so
    the tuples may run in any order. *)

val kind_names : string array
(** The tuple kinds in descriptor order: inv, and, or, xor, andor,
    orand, xor3, out.  Kind [x]'s count is slot [x + 1]. *)

val arity : int array
(** Sources per tuple, indexed like {!kind_names}. *)

val n_kinds : int
(** [Array.length kind_names]. *)

val header : int
(** [1 + n_kinds]: the slot of a descriptor's first tuple. *)

val plain_kind : Hydra_netlist.Netlist.component -> int
(** The kind of an unfused gate's or outport's tuple, whose sources are
    its fanin in order; -1 for an inport, constant or dff, which have
    none. *)

type program = {
  netlist : Hydra_netlist.Netlist.t;
      (** the netlist actually compiled (post-relayout) *)
  levels : Hydra_netlist.Levelize.t;
  ranks : int array array;
      (** one descriptor per levelized rank, empty ranks included: rank
          [r] is [ranks.(r)], and force slot [r + 1] follows it *)
  consts : (int * bool) array;  (** component index, constant value *)
  dffs : int array;
  dff_src : int array;  (** driver of each dff, indexed like [dffs] *)
  dff_init : bool array;  (** power-up values, indexed like [dffs] *)
  fused : int;  (** gates evaluated inside a fused kernel (never stored) *)
  consumed_by : int array;
      (** per component: the outer gate that absorbed it into its fused
          tuple (it is never stored), or -1.  An or that absorbed both
          and-inputs is an [andor] tuple, one that absorbed one an
          [orand]; a xor that absorbed a xor-input is a [xor3]. *)
  k : int;  (** the words-per-signal of the engine it was compiled for *)
  input_index : (string, int) Hashtbl.t;
  output_index : (string, int) Hashtbl.t;
}

val compile :
  ?relayout:bool -> ?fuse:bool -> ?k:int -> Hydra_netlist.Netlist.t -> program
(** Raises {!Hydra_netlist.Levelize.Combinational_cycle} on an invalid
    circuit.  [~relayout] (default true) applies the
    {!Hydra_netlist.Layout.rank_major} memory re-layout; [~fuse]
    (default true) absorbs fanout-1 inner gates into fused and-or /
    or-and / xor-chain kernels.  [~k] (the engine's words-per-signal,
    default 1, must be >= 1) only tags the program for
    {!Slab.of_program}; it never changes what is compiled.  Other
    netlist passes compose in front: [compile (Optimize.optimize nl)]
    compiles the optimized circuit, and {!Hydra_analyze.Certify.optimize}
    and {!Hydra_analyze.Certify.rank_major} check such a pass's run. *)

val n_ranks : program -> int
(** [Array.length program.ranks]. *)

val size : program -> int
(** Component count of the compiled netlist. *)

(** What {!patch} actually did, for perf accounting: the edit set size,
    fusions undone, ranks rebuilt vs reused, and tuples recompiled vs
    the component total. *)
type patch_stats = {
  p_edited : int;
  p_defused : int;
  p_ranks_rebuilt : int;
  p_ranks_total : int;
  p_comps_recompiled : int;
  p_comps_total : int;
}

val patch :
  program -> Hydra_netlist.Netlist.t -> edited:int list -> program * patch_stats
(** Incremental recompilation: rebuild only what a small edit invalidated
    instead of recompiling from scratch.  The edited netlist must share
    the program's index space — same size, every component outside
    [~edited] identical (kind and fanin), and every edited site a
    combinational gate ([Invc]/[And2c]/[Or2c]/[Xor2c]) on both sides —
    because the edit is expressed against [program.netlist] (the
    post-relayout netlist the descriptors index into).
    Re-levelizes incrementally from the edit
    ({!Hydra_netlist.Levelize.relevel}), un-fuses any fused tuple
    the edit touches (fusion is never *added* by a patch), and rebuilds
    exactly the ranks whose membership or tuples changed: a rebuilt
    rank's descriptor keeps its clean members' tuples, kind by kind, and
    appends tuples for only the components the edit touched.  Every
    other rank's descriptor is reused by reference.  Raises
    [Invalid_argument] on contract violations and
    {!Hydra_netlist.Levelize.Combinational_cycle} (with witness) when
    the edit closes a combinational loop.  The patched program is a
    normal immutable {!program}: engines build from it as usual, and
    {!Hydra_verify.Equiv.certify_patch} checks it against a fresh full
    compile. *)

val force_slot : what:string -> program -> int -> int
(** The rank-boundary slot at which a forced value on the given
    component must be applied so that every consumer (always at a
    strictly higher rank) reads the overridden word: slot 0 (before rank
    0) for inports, constants and dffs; slot [rank + 1] (right after the
    component's own rank) for gates and outports.  Raises a descriptive
    [Invalid_argument] — prefixed with [what] — when the component index
    is outside the compiled netlist. *)

val n_force_slots : program -> int
(** Number of force slots: rank count + 1. *)
