(* Whole-netlist transformations on the state elements.

   The paper's section 2 argues against gating clocks: "a true conditional
   load register should be used".  These passes mechanize that argument at
   the netlist level — they rewrite every flip flop to a conditional-load
   structure behind a new control input, without touching the clock:

   - [insert_stall]: dff input becomes [mux stall input self]; while the
     new input is 1 the whole machine freezes, and simulation is exactly
     time-dilated.
   - [insert_reset]: dff input becomes [mux reset input power_up]; pulsing
     the new input returns the machine synchronously to its power-up
     state (useful after {!Hydra_analyze.Sim}'s ternary simulator shows a
     design relies on power-up values). *)

(* Append components to a netlist, returning the extended arrays and a
   fresh-index allocator. *)
type builder = {
  mutable comps : (Netlist.component * int array) list;  (* newest first *)
  mutable next : int;
}

let builder nl = { comps = []; next = Netlist.size nl }

let emit b comp fanin =
  let idx = b.next in
  b.next <- b.next + 1;
  b.comps <- (comp, fanin) :: b.comps;
  idx

let gate b kind a0 a1 = emit b kind [| a0; a1 |]
let inv b a = emit b Netlist.Invc [| a |]

(* mux1 c x y built from primitives: or (and (inv c) x) (and c y) *)
let mux b c x y =
  let nc = inv b c in
  let l = gate b Netlist.And2c nc x in
  let r = gate b Netlist.And2c c y in
  gate b Netlist.Or2c l r

let finish nl b ~extra_inputs =
  let n_old = Netlist.size nl in
  let added = List.rev b.comps in
  let total = b.next in
  let components = Array.make total (Netlist.Constant false) in
  let fanin = Array.make total [||] in
  let names = Array.make total [] in
  Array.blit nl.Netlist.components 0 components 0 n_old;
  Array.blit nl.Netlist.fanin 0 fanin 0 n_old;
  Array.blit nl.Netlist.names 0 names 0 n_old;
  List.iteri
    (fun i (comp, fi) ->
      components.(n_old + i) <- comp;
      fanin.(n_old + i) <- fi)
    added;
  {
    nl with
    Netlist.components;
    fanin;
    names;
    inputs = nl.Netlist.inputs @ extra_inputs;
  }

(* [insert_stall nl ~name]: add an input [name]; while it is 1, every
   flip flop holds its value. *)
let insert_stall nl ~name =
  if List.mem_assoc name nl.Netlist.inputs then
    invalid_arg "Transform.insert_stall: input name already exists";
  let b = builder nl in
  let stall = emit b (Netlist.Inport name) [||] in
  let rewires = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Dffc _ ->
        let old_src = nl.Netlist.fanin.(i).(0) in
        (* mux stall old_src self: stall = 0 -> follow, 1 -> hold *)
        let m = mux b stall old_src i in
        rewires := (i, m) :: !rewires
      | _ -> ())
    nl.Netlist.components;
  let nl' = finish nl b ~extra_inputs:[ (name, stall) ] in
  List.iter (fun (i, m) -> nl'.Netlist.fanin.(i) <- [| m |]) !rewires;
  nl'

(* [insert_reset nl ~name]: add an input [name]; while it is 1, every flip
   flop loads its power-up value at the tick (synchronous reset). *)
let insert_reset nl ~name =
  if List.mem_assoc name nl.Netlist.inputs then
    invalid_arg "Transform.insert_reset: input name already exists";
  let b = builder nl in
  let reset = emit b (Netlist.Inport name) [||] in
  let const0 = emit b (Netlist.Constant false) [||] in
  let const1 = emit b (Netlist.Constant true) [||] in
  let rewires = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Dffc init ->
        let old_src = nl.Netlist.fanin.(i).(0) in
        let init_c = if init then const1 else const0 in
        let m = mux b reset old_src init_c in
        rewires := (i, m) :: !rewires
      | _ -> ())
    nl.Netlist.components;
  let nl' = finish nl b ~extra_inputs:[ (name, reset) ] in
  List.iter (fun (i, m) -> nl'.Netlist.fanin.(i) <- [| m |]) !rewires;
  nl'
