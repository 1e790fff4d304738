(* The wide engine is the k = 1 slab; see compiled_wide.mli. *)

type t = Slab.t

let lanes = Hydra_core.Packed.lanes

let create nl = Slab.create ~k:1 nl

let of_program prog =
  if prog.Kernel.k <> 1 then
    invalid_arg
      (Printf.sprintf
         "Compiled_wide.of_program: program compiled for k=%d, need k=1"
         prog.Kernel.k);
  Slab.of_program prog

let reset = Slab.reset
let set_input = Slab.set_input
let settle = Slab.settle
let tick = Slab.tick
let step = Slab.step
let output = Slab.output
