(** Compile-time plumbing of the word-parallel engine.

    {!Slab} (K consecutive 62-lane words per signal; k = 1 is the
    62-lane {!Compiled_wide}) runs branch-free per-op loops over
    pre-split index arrays; this module is the front end that builds
    them.  [compile] runs the optional
    [?optimize]/[?relayout] pre-passes (optionally translation-validated
    by {!Hydra_analyze.Certify}), levelizes, plans kernel fusion, and
    splits every levelized rank into one {!kernel} of flat per-gate-kind
    (dst, src) index arrays.  Every member of a rank is independent of
    the others, so a rank is the unit of evaluation: an engine runs one
    kernel per rank, in rank order.  The resulting {!program} is
    immutable and engine-agnostic: engines layer their own value state
    (one word or K words per component) on top of it and may share one
    program between many replicas. *)

(** One levelized rank, pre-split by gate kind: [x_dst.(j)] is evaluated
    from [x_src*.(j)] for every [j], in any order (all sources settle at
    strictly lower ranks; fused kernels read the consumed inner gate's
    sources, which settle earlier still). *)
type kernel = {
  inv_dst : int array;
  inv_src : int array;
  and_dst : int array;
  and_s0 : int array;
  and_s1 : int array;
  or_dst : int array;
  or_s0 : int array;
  or_s1 : int array;
  xor_dst : int array;
  xor_s0 : int array;
  xor_s1 : int array;
  andor_dst : int array;  (** dst = (a & b) | (c & d) *)
  andor_a : int array;
  andor_b : int array;
  andor_c : int array;
  andor_d : int array;
  orand_dst : int array;  (** dst = (a & b) | c *)
  orand_a : int array;
  orand_b : int array;
  orand_c : int array;
  xor3_dst : int array;  (** dst = a ^ b ^ c *)
  xor3_a : int array;
  xor3_b : int array;
  xor3_c : int array;
  out_dst : int array;  (** outports: plain word copies *)
  out_src : int array;
}

val kinds : kernel -> (string * int array * int array array) array
(** A kernel's gate kinds in the C stub's order (inv, and, or, xor,
    andor, orand, xor3, out): name, destinations, and the source arrays,
    indexed like the destinations. *)

(** How the outer gate at [dst] absorbed a fanout-1 inner gate (the
    fusion plan is carried in the program so {!patch} can undo it
    locally). *)
type fusion =
  | Andor of int * int * int * int  (** dst = (a & b) | (c & d) *)
  | Orand of int * int * int  (** dst = (a & b) | c *)
  | Xor3 of int * int * int  (** dst = a ^ b ^ c *)

type program = {
  netlist : Hydra_netlist.Netlist.t;
      (** the netlist actually compiled (post-optimize, post-relayout) *)
  levels : Hydra_netlist.Levelize.t;
  ranks : kernel array;
      (** one kernel per levelized rank, empty ranks included: rank [r]
          is [ranks.(r)], and force slot [r + 1] follows it *)
  consts : (int * bool) array;  (** component index, constant value *)
  dffs : int array;
  dff_src : int array;  (** driver of each dff, indexed like [dffs] *)
  dff_init : bool array;  (** power-up values, indexed like [dffs] *)
  fused : int;  (** gates evaluated inside a fused kernel (never stored) *)
  fusion : fusion option array;
      (** per component: the fusion its kernel entry uses, if any *)
  consumed : bool array;
      (** per component: absorbed into an outer fused kernel, never
          stored *)
  consumed_by : int array;
      (** per component: the outer gate that absorbed it, or -1 *)
  k : int;  (** the words-per-signal of the engine it was compiled for *)
  input_index : (string, int) Hashtbl.t;
  output_index : (string, int) Hashtbl.t;
}

val compile :
  ?optimize:bool ->
  ?relayout:bool ->
  ?fuse:bool ->
  ?certify:bool ->
  ?k:int ->
  Hydra_netlist.Netlist.t ->
  program
(** Raises {!Hydra_netlist.Levelize.Combinational_cycle} on an invalid
    circuit.  [~optimize:true] (default false) runs the
    {!Hydra_netlist.Optimize} pre-pass; [~relayout] (default true)
    applies the {!Hydra_netlist.Layout.rank_major} memory re-layout;
    [~fuse] (default true) absorbs fanout-1 inner gates into fused
    and-or / or-and / xor-chain kernels; [~certify:true] (default
    false) translation-validates each pre-pass run with
    {!Hydra_analyze.Certify} and raises
    {!Hydra_analyze.Certify.Certification_failed} on a lie.
    [~k] (the engine's words-per-signal, default 1, must be >= 1) only
    tags the program for {!Slab.of_program}; it never changes what is
    compiled. *)

val n_ranks : program -> int
(** [Array.length program.ranks]. *)

val size : program -> int
(** Component count of the compiled netlist. *)

(** What {!patch} actually did, for perf accounting: the edit set size,
    fusions undone, ranks rebuilt vs reused, and kernel entries
    recompiled vs the component total. *)
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
    post-optimize/post-relayout netlist the kernels index into).
    Re-levelizes incrementally from the edit, un-fuses any fused kernel
    the edit touches (fusion is never *added* by a patch), and rebuilds
    exactly the ranks whose membership or kernel content changed: a
    rebuilt rank keeps its unchanged entries and compiles only the
    components the edit touched.  Every other rank's kernel is reused by
    reference.  Raises
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
