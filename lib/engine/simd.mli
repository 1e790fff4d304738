(** The C block kernel that runs every ungated {!Slab} block.

    The stub is always compiled and always correct — what varies by
    build host is whether it carries AVX2/NEON vector paths or portable
    scalar C.  The dune rule probing the toolchain only enables
    [-mavx2] when the host both compiles {e and executes} an AVX2
    program; NEON is baseline on aarch64 and needs no probe.  Set
    [HYDRA_SIMD=off] in the environment at build time to force the
    scalar flavor. *)

val settle_block : int array -> int array -> unit
(** [settle_block values desc]: evaluate one compiled block, reading
    and writing the value slab in place.  [desc] is the descriptor
    {!Slab} builds per block: [k; n_inv; n_and; n_or; n_xor; n_andor;
    n_orand; n_xor3; n_out] followed by per-kind (dst, src...) index
    tuples in that order, indices pre-scaled by [k].  Assumes a
    well-formed descriptor (indices in range) — {!Slab} builds and
    range-checks every descriptor and is the only intended caller.
    [k = 1] runs a copy specialised without the word loops. *)

val flavor : unit -> string
(** The code path this build compiled: ["avx2"], ["neon"] or
    ["scalar-c"]. *)
