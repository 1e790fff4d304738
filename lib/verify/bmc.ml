(* Bounded model checking and reachability over netlist state machines.

   The synchronous model makes the whole circuit one state machine whose
   state vector is the flip-flop contents (paper section 3).  This module
   explores that machine on the packed reference simulator
   ({!Hydra_analyze.Sim}), driving broadcast words and reading lane 0:
   breadth-first reachability over dff states (for circuits with few
   inputs/flip flops) and bounded-depth checking of output invariants. *)

module Netlist = Hydra_netlist.Netlist
module Sim = Hydra_analyze.Sim

type violation = {
  depth : int;
  inputs : bool list list;  (* input rows leading to the violation *)
  outputs : (string * bool) list;
}

type result = Holds | Violated of violation

(* Invariant support: dff component indices proven stuck at their
   power-up value (e.g. by [Hydra_analyze.Dataflow.stuck_registers]) can
   be assumed by the search.  Pinned dffs are omitted from the state —
   collapsing states that differ only in provably-constant bits — and
   re-checked at every successor: a pinned dff caught off its value means
   the supplied analysis was wrong and the pruning unsound, so the
   tripwire fails hard rather than silently exploring a wrong space. *)
let validate_invariants netlist invariants =
  List.iter
    (fun (i, b) ->
      if i < 0 || i >= Netlist.size netlist then
        invalid_arg (Printf.sprintf "Bmc: invariant index %d out of range" i);
      match netlist.Netlist.components.(i) with
      | Netlist.Dffc init ->
        if init <> b then
          invalid_arg
            (Printf.sprintf
               "Bmc: invariant pins dff %d at %b but it powers up at %b" i b
               init)
      | _ ->
        invalid_arg
          (Printf.sprintf "Bmc: invariant index %d is not a flip flop" i))
    invariants

(* One circuit under search, its dffs as (index, driver, power-up value).
   A state is the values of the unpinned ([free]) dffs, ascending by
   index.  A pinned dff powers up at its pinned value and the search
   never ticks, so its state is never written; it is tripwired instead,
   at every successor. *)
type machine = {
  sim : Sim.packed;
  names : string list;  (* the inputs an input row drives, in row order *)
  outputs : (string * int) list;
  free : (int * int * bool) list;
  pinned : (int * int * bool) list;
}

let machine ?(invariants = []) nl =
  validate_invariants nl invariants;
  let dffs = ref [] in
  Array.iteri
    (fun i c ->
      match c with
      | Netlist.Dffc init -> dffs := (i, nl.Netlist.fanin.(i).(0), init) :: !dffs
      | _ -> ())
    nl.Netlist.components;
  let pinned, free =
    List.partition (fun (i, _, _) -> List.mem_assoc i invariants) (List.rev !dffs)
  in
  {
    sim = Sim.packed_create nl;
    names = List.map fst nl.Netlist.inputs;
    outputs = nl.Netlist.outputs;
    free;
    pinned;
  }

let start m = List.map (fun (_, _, init) -> init) m.free

let lane0 m i = Sim.packed_value m.sim i land 1 = 1

(* Load [state] into the dffs, drive input row [v] (broadcast words) and
   settle. *)
let settle m state v =
  List.iter2 (fun (i, _, _) b -> Sim.packed_poke m.sim i (-Bool.to_int b)) m.free state;
  List.iter2 (fun n b -> Sim.packed_set_input m.sim n (-Bool.to_int b)) m.names v;
  Sim.packed_settle m.sim

(* The state the clock edge would latch: each dff's settled driver. *)
let successor m =
  List.iter
    (fun (i, d, b) ->
      if lane0 m d <> b then
        failwith
          (Printf.sprintf
             "Bmc: invariant violated: dff %d left its pinned value %b" i b))
    m.pinned;
  List.map (fun (_, d, _) -> lane0 m d) m.free

let outputs m = List.map (fun (n, i) -> (n, lane0 m i)) m.outputs

(* The one breadth-first search, over the product of [machines] driven
   with the same input rows.  Each queued state below [depth] is
   expanded under every row: restore it, drive the row, settle,
   [observe] (which raises to end the search), read the successor, and
   queue it if it is new and [admit] lets it in.  Returns the number of
   states seen. *)
let bfs ?(admit = fun _ -> true) ~observe ~depth machines =
  let rows = Hydra_core.Bit.vectors (List.length (List.hd machines).names) in
  let start = List.map start machines in
  let seen = Hashtbl.create 256 and queue = Queue.create () in
  Hashtbl.add seen start ();
  Queue.add (start, 0, []) queue;
  while not (Queue.is_empty queue) do
    let state, d, history = Queue.pop queue in
    if d < depth then
      List.iter
        (fun v ->
          List.iter2 (fun m s -> settle m s v) machines state;
          let history = v :: history in
          observe ~depth:d ~history;
          let s' = List.map successor machines in
          if (not (Hashtbl.mem seen s')) && admit seen then begin
            Hashtbl.add seen s' ();
            Queue.add (s', d + 1, history) queue
          end)
        rows
  done;
  Hashtbl.length seen

exception Found of violation

let found ~depth ~history outputs =
  Found { depth; inputs = List.rev history; outputs }

(* The search of [check] and [equiv_sequential]: [observe] raises
   {!found} on a violation; more than [max_states] expansions fail. *)
let falsify who ~max_states ~depth ~observe machines =
  if depth < 0 then invalid_arg (Printf.sprintf "%s: negative depth %d" who depth);
  let explored = ref 0 in
  let observe ~depth ~history =
    incr explored;
    if !explored > max_states then failwith (who ^ ": state budget exceeded");
    observe ~depth ~history
  in
  match bfs ~observe ~depth machines with
  | _ -> Holds
  | exception Found v -> Violated v

(* [check ~netlist ~property ~depth]: drive the circuit with every input
   sequence of length [depth] (exhaustive over the circuit's inputs per
   cycle) and fail if [property] (a named output) is ever 0 after
   settling.  Breadth-first over deduplicated dff states, so a reported
   violation is at the earliest possible depth.  Exponential in inputs:
   intended for control-style circuits with few inputs. *)
let check ?(max_states = 200_000) ?(invariants = []) ~property ~depth netlist =
  let p =
    match List.assoc_opt property netlist.Netlist.outputs with
    | Some p -> p
    | None -> invalid_arg ("Bmc.check: unknown output " ^ property)
  in
  let m = machine ~invariants netlist in
  let observe ~depth ~history =
    if not (lane0 m p) then raise (found ~depth ~history (outputs m))
  in
  falsify "Bmc.check" ~max_states ~depth ~observe [ m ]

(* Reachable state count via BFS from the power-up state, driving all
   input combinations at every step.  For small sequential circuits. *)
let reachable_states ?(limit = 100_000) ?(invariants = []) netlist =
  let truncated = ref false in
  let admit seen = Hashtbl.length seen < limit || (truncated := true; false) in
  let count =
    bfs ~admit ~observe:(fun ~depth:_ ~history:_ -> ()) ~depth:max_int
      [ machine ~invariants netlist ]
  in
  (count, !truncated)

(* Sequential equivalence up to [depth]: two netlists with identical input
   and output port names produce identical output values on every input
   sequence of length [depth].  Breadth-first over deduplicated product
   states, so a reported difference is at the earliest possible depth. *)
let equiv_sequential ?(max_states = 200_000) ~depth nl_a nl_b =
  let ports nl = List.sort compare (List.map fst nl) in
  if ports nl_a.Netlist.inputs <> ports nl_b.Netlist.inputs then
    invalid_arg "Bmc.equiv_sequential: different input ports";
  if ports nl_a.Netlist.outputs <> ports nl_b.Netlist.outputs then
    invalid_arg "Bmc.equiv_sequential: different output ports";
  let ma = machine nl_a in
  let mb = { (machine nl_b) with names = ma.names } in
  let observe ~depth ~history =
    let oa = List.sort compare (outputs ma) in
    if oa <> List.sort compare (outputs mb) then raise (found ~depth ~history oa)
  in
  falsify "Bmc.equiv_sequential" ~max_states ~depth ~observe [ ma; mb ]
