(* Direct netlist interpreter: demand-driven recursive evaluation with a
   per-cycle epoch stamp, no levelization preprocessing.

   This is the naive point in the simulator design space — it re-walks the
   fanin graph every cycle — and serves as the baseline against the
   levelized {!Compiled} engine (experiment E12). *)

module Netlist = Hydra_netlist.Netlist

type t = {
  netlist : Netlist.t;
  values : bool array;       (* valid when stamp matches the current epoch *)
  stamp : int array;
  state : bool array;        (* dff state, valid across cycles *)
  is_dff : bool array;
  inputs_now : bool array;
  input_index : (string, int) Hashtbl.t;
  mutable epoch : int;
  mutable cycle : int;
}

let create netlist =
  (* reject combinational cycles up front, like every other engine *)
  ignore (Hydra_netlist.Levelize.check netlist);
  let n = Netlist.size netlist in
  let is_dff =
    Array.map (function Netlist.Dffc _ -> true | _ -> false)
      netlist.Netlist.components
  in
  let state = Array.make n false in
  Array.iteri
    (fun i comp ->
      match comp with Netlist.Dffc init -> state.(i) <- init | _ -> ())
    netlist.Netlist.components;
  let input_index = Hashtbl.create 16 in
  List.iter (fun (s, i) -> Hashtbl.replace input_index s i) netlist.Netlist.inputs;
  {
    netlist;
    values = Array.make n false;
    stamp = Array.make n (-1);
    state;
    is_dff;
    inputs_now = Array.make n false;
    input_index;
    epoch = 0;
    cycle = 0;
  }

let reset t =
  Array.fill t.stamp 0 (Array.length t.stamp) (-1);
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Dffc init -> t.state.(i) <- init
      | _ -> t.state.(i) <- false)
    t.netlist.Netlist.components;
  t.epoch <- 0;
  t.cycle <- 0

let set_input t name b =
  match Hashtbl.find_opt t.input_index name with
  | Some i -> t.inputs_now.(i) <- b
  | None -> invalid_arg ("Interp.set_input: unknown input " ^ name)

let rec eval t i =
  if t.stamp.(i) = t.epoch then t.values.(i)
  else begin
    let value =
      match t.netlist.Netlist.components.(i) with
      | Netlist.Inport _ -> t.inputs_now.(i)
      | Netlist.Constant b -> b
      | Netlist.Dffc _ -> t.state.(i)
      | Netlist.Invc -> not (eval t t.netlist.Netlist.fanin.(i).(0))
      | Netlist.And2c ->
        eval t t.netlist.Netlist.fanin.(i).(0)
        && eval t t.netlist.Netlist.fanin.(i).(1)
      | Netlist.Or2c ->
        eval t t.netlist.Netlist.fanin.(i).(0)
        || eval t t.netlist.Netlist.fanin.(i).(1)
      | Netlist.Xor2c ->
        eval t t.netlist.Netlist.fanin.(i).(0)
        <> eval t t.netlist.Netlist.fanin.(i).(1)
      | Netlist.Outport _ -> eval t t.netlist.Netlist.fanin.(i).(0)
    in
    t.values.(i) <- value;
    t.stamp.(i) <- t.epoch;
    value
  end

let output t name =
  match List.assoc_opt name t.netlist.Netlist.outputs with
  | Some i -> eval t i
  | None -> invalid_arg ("Interp.output: unknown output " ^ name)

let outputs t =
  List.map (fun (s, i) -> (s, eval t i)) t.netlist.Netlist.outputs

(* One clock cycle: evaluate the cone of every output and every dff input,
   then latch. *)
let step t =
  ignore (outputs t);
  let next = ref [] in
  Array.iteri
    (fun i d ->
      if d then next := (i, eval t t.netlist.Netlist.fanin.(i).(0)) :: !next)
    t.is_dff;
  List.iter (fun (i, b) -> t.state.(i) <- b) !next;
  t.epoch <- t.epoch + 1;
  t.cycle <- t.cycle + 1

let cycle t = t.cycle

let run t ~inputs ~cycles =
  Run.loop ~reset ~set_input ~settle:ignore ~outputs ~tick:step t
    ~inputs ~cycles
