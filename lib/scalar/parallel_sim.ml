(* Domain-parallel levelized simulator (paper section 4.3).

   "All the function applications corresponding to components that operate
   in parallel can be evaluated simultaneously": after levelization, every
   gate within one level is independent — its inputs were produced at
   strictly lower levels — so each level is a parallel-for over the pool
   with a barrier between levels; the dff latch phase is embarrassingly
   parallel as well.

   This pays off only when levels are wide (thousands of gates); for
   narrow circuits the barriers dominate, which is exactly the tradeoff
   experiment E10 measures. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module Pool = Hydra_parallel.Pool

type t = {
  base : Compiled.t;
  pool : Pool.t;
  by_level : int array array;
  owns_pool : bool;
}

let create ?pool netlist =
  let base = Compiled.create netlist in
  let pool', owns =
    match pool with Some p -> (p, false) | None -> (Pool.create (), true)
  in
  {
    base;
    pool = pool';
    by_level = (Compiled.levels base).Levelize.by_level;
    owns_pool = owns;
  }

let shutdown t = if t.owns_pool then Pool.shutdown t.pool

let reset t = Compiled.reset t.base
let set_input t = Compiled.set_input t.base
let output t = Compiled.output t.base
let outputs t = Compiled.outputs t.base

let settle t =
  Array.iter
    (fun level ->
      Pool.parallel_for t.pool 0 (Array.length level) (fun k ->
          Compiled.eval_component t.base level.(k)))
    t.by_level

let tick t =
  let dffs = Compiled.dff_indices t.base in
  Pool.parallel_for t.pool 0 (Array.length dffs) (fun j ->
      Compiled.latch_one t.base j);
  Pool.parallel_for t.pool 0 (Array.length dffs) (fun j ->
      Compiled.commit_one t.base j);
  Compiled.bump_cycle t.base

let step t =
  settle t;
  tick t

let run t ~inputs ~cycles =
  Run.loop ~reset ~set_input ~settle ~outputs ~tick t ~inputs ~cycles
