(* Reference netlist evaluators for the analyses.

   Two deliberately simple interpreters over [Netlist.t], kept below
   [Hydra_engine] in the dependency order so the engines themselves can
   be *checked* against them:

   - a stepping ternary simulator (Kleene 0/1/X over
     {!Hydra_core.Ternary}) for power-up and reset analysis, and the
     abstract evaluator of the lint rules: constants propagate, inputs
     and flip-flop state are parameters, components left unleveled by a
     combinational cycle stay X;

   - a packed (62-lane) concrete simulator used by {!Certify} as the
     independent oracle for transform translation-validation.  It shares
     no code with the compiled engines — no optimizer, no re-layout, no
     fused kernels — which is the point: a bug in those passes cannot
     hide in the checker. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module T = Hydra_core.Ternary
module P = Hydra_core.Packed

(* Ternary evaluation ---------------------------------------------------- *)

(* THE ternary abstract transfer function over netlist components: one
   Kleene gate evaluation, reading fanin values through [fi].  This is the
   single shared implementation behind the ternary simulator (and so
   the lint rules' {!ternary_values}) and every {!Dataflow} forward
   domain — a soundness bug here would poison both, which is why
   test_dataflow checks the gate laws (monotonicity w.r.t. {!T.leq}) by
   QCheck.
   [None] for components that are not combinational functions of their
   fanin (ports, constants, flip flops): their values are boundary
   conditions of whichever analysis is running. *)
let ternary_gate (c : Netlist.component) (fi : int -> T.t) : T.t option =
  match c with
  | Netlist.Invc -> Some (T.inv (fi 0))
  | Netlist.And2c -> Some (T.and2 (fi 0) (fi 1))
  | Netlist.Or2c -> Some (T.or2 (fi 0) (fi 1))
  | Netlist.Xor2c -> Some (T.xor2 (fi 0) (fi 1))
  | Netlist.Outport _ -> Some (fi 0)
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> None

(* Indices of the flip flops, ascending. *)
let dff_indices nl =
  let dffs = ref [] in
  Array.iteri
    (fun i c -> match c with Netlist.Dffc _ -> dffs := i :: !dffs | _ -> ())
    nl.Netlist.components;
  Array.of_list (List.rev !dffs)

(* The stepping ternary simulator: flip flops power up at X (or their
   declared value with [respect_init]) and gates settle through
   {!ternary_gate} in levelized order; components on combinational
   cycles are never evaluated and read X.  A dff's value lives in its
   own [values] slot and changes only at a step.  Every other value is
   recomputed by the next settle, which a read or a step runs when an
   input or the state has changed since the last one. *)
type ternary = {
  nl : Netlist.t;
  ranks : int array array;
  values : T.t array;
  dffs : int array;
  next : T.t array;  (* latch buffer, one slot per dff *)
  mutable settled : bool;
}

let ternary_create ?(respect_init = false) nl =
  let values =
    Array.map
      (function
        | Netlist.Constant b -> T.of_bool b
        | Netlist.Dffc init when respect_init -> T.of_bool init
        | _ -> T.X)
      nl.Netlist.components
  in
  let dffs = dff_indices nl in
  {
    nl;
    ranks = (Levelize.of_netlist nl).Levelize.by_level;
    values;
    dffs;
    next = Array.make (Array.length dffs) T.X;
    settled = false;
  }

let ternary_settle t =
  if not t.settled then begin
    let nl = t.nl in
    Array.iter
      (Array.iter (fun i ->
           let fi k = t.values.(nl.Netlist.fanin.(i).(k)) in
           match ternary_gate nl.Netlist.components.(i) fi with
           | Some v -> t.values.(i) <- v
           | None -> ()))
      t.ranks;
    t.settled <- true
  end

let ternary_set_input t name v =
  match List.assoc_opt name t.nl.Netlist.inputs with
  | Some i ->
    t.values.(i) <- v;
    t.settled <- false
  | None -> invalid_arg ("Sim.ternary_set_input: unknown input " ^ name)

let ternary_step t =
  ternary_settle t;
  Array.iteri
    (fun j i -> t.next.(j) <- t.values.(t.nl.Netlist.fanin.(i).(0)))
    t.dffs;
  Array.iteri (fun j i -> t.values.(i) <- t.next.(j)) t.dffs;
  t.settled <- false

let ternary_value t i =
  ternary_settle t;
  t.values.(i)

let ternary_output t name =
  match List.assoc_opt name t.nl.Netlist.outputs with
  | Some i -> ternary_value t i
  | None -> invalid_arg ("Sim.ternary_output: unknown output " ^ name)

let ternary_unknown_dffs t =
  Array.fold_left
    (fun n i -> if t.values.(i) = T.X then n + 1 else n)
    0 t.dffs

(* Settled component values after [cycles] clock ticks, with every input
   port held at [inputs]: the stepper run to completion, its value array
   handed over. *)
let ternary_values ?(inputs = T.X) ?respect_init ?(cycles = 0) nl =
  let t = ternary_create ?respect_init nl in
  Array.iteri
    (fun i c -> match c with Netlist.Inport _ -> t.values.(i) <- inputs | _ -> ())
    nl.Netlist.components;
  for _ = 1 to cycles do
    ternary_step t
  done;
  ternary_settle t;
  t.values

(* Packed reference simulator -------------------------------------------- *)

type packed = {
  nl : Netlist.t;
  ranks : int array array;
  values : int array;
  state : int array;  (* indexed like components; only dffs used *)
  input_index : (string, int) Hashtbl.t;
  dffs : int array;
  dff_init : int array;  (* broadcast power-up words *)
  consts : int array;
  const_w : int array;  (* broadcast constant words *)
}

let packed_create nl =
  let lv = Levelize.check nl in
  let n = Netlist.size nl in
  let input_index = Hashtbl.create 16 in
  List.iter (fun (s, i) -> Hashtbl.replace input_index s i) nl.Netlist.inputs;
  let dffs = dff_indices nl in
  let dff_init =
    Array.map
      (fun i ->
        match nl.Netlist.components.(i) with
        | Netlist.Dffc b -> if b then P.lane_mask else 0
        | _ -> assert false)
      dffs
  in
  let consts = ref [] in
  Array.iteri
    (fun i c -> match c with Netlist.Constant b -> consts := (i, b) :: !consts | _ -> ())
    nl.Netlist.components;
  let consts = Array.of_list (List.rev !consts) in
  let t =
    {
      nl;
      ranks = lv.Levelize.by_level;
      values = Array.make n 0;
      state = Array.make n 0;
      input_index;
      dffs;
      dff_init;
      consts = Array.map fst consts;
      const_w = Array.map (fun (_, b) -> if b then P.lane_mask else 0) consts;
    }
  in
  Array.iteri (fun j i -> t.state.(i) <- dff_init.(j)) dffs;
  t

let packed_reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  Array.fill t.state 0 (Array.length t.state) 0;
  Array.iteri (fun j i -> t.state.(i) <- t.dff_init.(j)) t.dffs

let packed_set_input t name w =
  match Hashtbl.find_opt t.input_index name with
  | Some i -> t.values.(i) <- w land P.lane_mask
  | None -> invalid_arg ("Sim.packed_set_input: unknown input " ^ name)

(* Constants and dff states first, from their index arrays; then every
   gate in levelized order, reading its fanin without a closure. *)
let packed_settle t =
  let nl = t.nl and v = t.values in
  Array.iteri (fun j i -> v.(i) <- t.const_w.(j)) t.consts;
  Array.iter (fun i -> v.(i) <- t.state.(i)) t.dffs;
  Array.iter
    (Array.iter (fun i ->
         let fi = nl.Netlist.fanin.(i) in
         match nl.Netlist.components.(i) with
         | Netlist.Invc -> v.(i) <- lnot v.(fi.(0)) land P.lane_mask
         | Netlist.And2c -> v.(i) <- v.(fi.(0)) land v.(fi.(1))
         | Netlist.Or2c -> v.(i) <- v.(fi.(0)) lor v.(fi.(1))
         | Netlist.Xor2c -> v.(i) <- v.(fi.(0)) lxor v.(fi.(1))
         | Netlist.Outport _ -> v.(i) <- v.(fi.(0))
         | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> ()))
    t.ranks

let packed_tick t =
  Array.iter
    (fun i -> t.state.(i) <- t.values.(t.nl.Netlist.fanin.(i).(0)))
    t.dffs

let packed_output t name =
  match List.assoc_opt name t.nl.Netlist.outputs with
  | Some i -> t.values.(i)
  | None -> invalid_arg ("Sim.packed_output: unknown output " ^ name)

(* Settled word of any component, by index — Dataflow's cross-check reads
   every component, not just ports, to compare analysis verdicts against
   what the lanes actually did. *)
let packed_value t i = t.values.(i)

(* Overwrite component [i]'s word: a flip flop's held state (what the
   next settle reads), any other component's current word — an input
   keeps it until re-driven, a gate or constant is recomputed by the
   next settle. *)
let packed_poke t i w =
  let w = w land P.lane_mask in
  t.values.(i) <- w;
  match t.nl.Netlist.components.(i) with
  | Netlist.Dffc _ -> t.state.(i) <- w
  | _ -> ()
