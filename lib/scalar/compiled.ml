(* Levelized compiled netlist simulator.

   The netlist is flattened into plain integer arrays (opcode and fanin per
   component) and each clock cycle is: write the inputs, evaluate the
   combinational components in topological order, read the outputs, then
   latch every dff from its input.  This is the fast consumer of the
   netlists Hydra generates — the same circuit the stream semantics
   simulates, now executed at array speed (experiment E12 quantifies the
   difference). *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize

type op = Op_input | Op_const | Op_inv | Op_and | Op_or | Op_xor | Op_out | Op_dff

type t = {
  netlist : Netlist.t;
  levels : Levelize.t;
  ops : op array;
  f0 : int array;  (* first fanin, -1 if none *)
  f1 : int array;  (* second fanin, -1 if none *)
  dffs : int array;
  dff_init : bool array;
  values : Bytes.t;
  dff_next : Bytes.t;  (* scratch: next state per dff (indexed like dffs) *)
  input_index : (string, int) Hashtbl.t;
  output_index : (string, int) Hashtbl.t;
  mutable cycle : int;
}

let v t i = Bytes.unsafe_get t.values i <> '\000'
let setv t i b = Bytes.unsafe_set t.values i (if b then '\001' else '\000')

(* Constants and dff power-up values; everything else reads 0. *)
let reset t =
  Bytes.fill t.values 0 (Bytes.length t.values) '\000';
  Array.iteri
    (fun i comp ->
      match comp with Netlist.Constant b -> setv t i b | _ -> ())
    t.netlist.Netlist.components;
  Array.iteri (fun j i -> setv t i t.dff_init.(j)) t.dffs;
  t.cycle <- 0

(* [?optimize] runs the {!Hydra_netlist.Optimize} pre-pass (constant
   folding, dedup, dead elimination) before compilation: fewer components
   to evaluate per cycle, identical port-level behaviour. *)
let create ?(optimize = false) netlist =
  let netlist =
    if optimize then Hydra_netlist.Optimize.optimize netlist else netlist
  in
  let levels = Levelize.check netlist in
  let n = Netlist.size netlist in
  let ops = Array.make n Op_const in
  let f0 = Array.make n (-1) and f1 = Array.make n (-1) in
  let dffs = ref [] in
  Array.iteri
    (fun i comp ->
      let fi = netlist.Netlist.fanin.(i) in
      if Array.length fi > 0 then f0.(i) <- fi.(0);
      if Array.length fi > 1 then f1.(i) <- fi.(1);
      ops.(i) <-
        (match comp with
        | Netlist.Inport _ -> Op_input
        | Netlist.Constant _ -> Op_const
        | Netlist.Invc -> Op_inv
        | Netlist.And2c -> Op_and
        | Netlist.Or2c -> Op_or
        | Netlist.Xor2c -> Op_xor
        | Netlist.Outport _ -> Op_out
        | Netlist.Dffc _ ->
          dffs := i :: !dffs;
          Op_dff))
    netlist.Netlist.components;
  let dffs = Array.of_list (List.rev !dffs) in
  let dff_init =
    Array.map
      (fun i ->
        match netlist.Netlist.components.(i) with
        | Netlist.Dffc b -> b
        | _ -> assert false)
      dffs
  in
  let input_index = Hashtbl.create 16 and output_index = Hashtbl.create 16 in
  List.iter (fun (s, i) -> Hashtbl.replace input_index s i) netlist.Netlist.inputs;
  List.iter (fun (s, i) -> Hashtbl.replace output_index s i) netlist.Netlist.outputs;
  let t =
    {
      netlist;
      levels;
      ops;
      f0;
      f1;
      dffs;
      dff_init;
      values = Bytes.make n '\000';
      dff_next = Bytes.make (Array.length dffs) '\000';
      input_index;
      output_index;
      cycle = 0;
    }
  in
  reset t;
  t

let set_input t name b =
  match Hashtbl.find_opt t.input_index name with
  | Some i -> setv t i b
  | None -> invalid_arg ("Compiled.set_input: unknown input " ^ name)

let eval_component t i =
  match Array.unsafe_get t.ops i with
  | Op_inv -> setv t i (not (v t t.f0.(i)))
  | Op_and -> setv t i (v t t.f0.(i) && v t t.f1.(i))
  | Op_or -> setv t i (v t t.f0.(i) || v t t.f1.(i))
  | Op_xor -> setv t i (v t t.f0.(i) <> v t t.f1.(i))
  | Op_out -> setv t i (v t t.f0.(i))
  | Op_input | Op_const | Op_dff -> ()

(* Evaluate the combinational logic for the current cycle (after the inputs
   have been set); outputs become readable. *)
let settle t =
  Array.iter
    (fun rank ->
      for k = 0 to Array.length rank - 1 do
        eval_component t (Array.unsafe_get rank k)
      done)
    t.levels.Levelize.by_level

(* The latch phases, exposed so that {!Parallel_sim} and {!Spmd} can
   parallelize them: [latch_one] computes dff [j]'s next state,
   [commit_one] installs it, [bump_cycle] advances the clock. *)
let latch_one t j =
  Bytes.unsafe_set t.dff_next j
    (if v t t.f0.(Array.unsafe_get t.dffs j) then '\001' else '\000')

let commit_one t j =
  Bytes.unsafe_set t.values (Array.unsafe_get t.dffs j)
    (Bytes.unsafe_get t.dff_next j)

let bump_cycle t = t.cycle <- t.cycle + 1

(* Latch every dff from its input and advance to the next cycle. *)
let tick t =
  for j = 0 to Array.length t.dffs - 1 do
    latch_one t j
  done;
  for j = 0 to Array.length t.dffs - 1 do
    commit_one t j
  done;
  bump_cycle t

let step t =
  settle t;
  tick t

let output t name =
  match Hashtbl.find_opt t.output_index name with
  | Some i -> v t i
  | None -> invalid_arg ("Compiled.output: unknown output " ^ name)

let outputs t =
  List.map (fun (s, i) -> (s, v t i)) t.netlist.Netlist.outputs

(* Read and overwrite one component's current value. *)
let peek = v
let poke = setv

(* Checkpointing: snapshot and restore the full simulation state (all
   component values and the cycle counter). *)
type snapshot = { snap_values : Bytes.t; snap_cycle : int }

let save t = { snap_values = Bytes.copy t.values; snap_cycle = t.cycle }

let restore t s =
  if Bytes.length s.snap_values <> Bytes.length t.values then
    invalid_arg "Compiled.restore: snapshot from a different circuit";
  Bytes.blit s.snap_values 0 t.values 0 (Bytes.length t.values);
  t.cycle <- s.snap_cycle
let cycle t = t.cycle
let critical_path t = t.levels.Levelize.critical_path
let levels t = t.levels
let dff_indices t = t.dffs

let run t ~inputs ~cycles =
  Run.loop ~reset ~set_input ~settle ~outputs ~tick t ~inputs ~cycles
