(* The C block kernel of the {!Slab} engine: every ungated block runs
   here.

   [settle_block values desc] evaluates one compiled block from the
   flat descriptor array {!Slab} builds at create time ([k], the eight
   kind counts, then per-kind (dst, src...) index tuples, every index
   pre-scaled by [k] and range-checked by {!Slab}) directly over the
   OCaml value slab.  The stub works on the tagged representation —
   and/or of two tagged ints is the tagged and/or, xor just re-ors the
   tag bit, inv masks against [lane_mask lsl 1] — so no boxing or
   copying happens at the boundary, and the per-gate K-word runs
   (contiguous addresses) vectorize with AVX2 (4 tagged ints per
   256-bit lane) or NEON when the build enabled them; otherwise the
   stub runs portable scalar C.  A k = 1 descriptor takes a copy
   specialised without the word loops.
   [@@noalloc]: the stub never allocates, touches the OCaml runtime or
   releases the domain lock, so the arrays cannot move under it. *)

external settle_block : int array -> int array -> unit = "hydra_settle_block"
[@@noalloc]

external kind_code : unit -> int = "hydra_simd_kind" [@@noalloc]

let flavor () =
  match kind_code () with 2 -> "avx2" | 1 -> "neon" | _ -> "scalar-c"

