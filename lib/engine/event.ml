(* Event-driven simulation with gate delays.

   The synchronous model (paper section 3) abstracts from the fact that
   "every physical component takes some time to respond to a change in its
   inputs".  This engine models that time explicitly with a transport-delay
   event queue: within one clock cycle, input and dff-output changes at
   t = 0 propagate through the combinational logic, each gate re-evaluating
   [delay] time units after an input edge.  It reports when the circuit
   settled and how many output transitions occurred — so glitches (a gate
   switching more than once per cycle) become observable, and the paper's
   guarantee can be checked: the settle time never exceeds the critical
   path times the gate delay (experiment E14). *)

module Netlist = Hydra_netlist.Netlist

(* Binary min-heap of (time, component) events. *)
module Heap = struct
  type t = { mutable a : (int * int) array; mutable n : int }

  let create () = { a = Array.make 64 (0, 0); n = 0 }
  let is_empty h = h.n = 0

  let push h e =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) (0, 0) in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- e;
    h.n <- h.n + 1;
    let rec up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if fst h.a.(i) < fst h.a.(p) then begin
          let tmp = h.a.(i) in
          h.a.(i) <- h.a.(p);
          h.a.(p) <- tmp;
          up p
        end
      end
    in
    up (h.n - 1)

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = ref i in
      if l < h.n && fst h.a.(l) < fst h.a.(!m) then m := l;
      if r < h.n && fst h.a.(r) < fst h.a.(!m) then m := r;
      if !m <> i then begin
        let tmp = h.a.(i) in
        h.a.(i) <- h.a.(!m);
        h.a.(!m) <- tmp;
        down !m
      end
    in
    down 0;
    top
end

type cycle_report = {
  settle_time : int;      (* time of the last value change *)
  transitions : int;      (* total gate-output changes this cycle *)
  glitches : int;         (* changes beyond the first per component *)
}

type t = {
  netlist : Netlist.t;
  fanout : Netlist.fanout;
  values : bool array;
  state : bool array;          (* dff state *)
  is_dff : bool array;
  inputs_now : bool array;
  input_index : (string, int) Hashtbl.t;
  delay_of : int -> int;
  changes_this_cycle : int array;
  mutable cycle : int;
}

let default_delay netlist i =
  match netlist.Netlist.components.(i) with
  | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c -> 1
  | Netlist.Outport _ | Netlist.Inport _ | Netlist.Constant _
  | Netlist.Dffc _ -> 0

let create ?delay netlist =
  ignore (Hydra_netlist.Levelize.check netlist);
  let n = Netlist.size netlist in
  let is_dff =
    Array.map (function Netlist.Dffc _ -> true | _ -> false)
      netlist.Netlist.components
  in
  let state = Array.make n false in
  let values = Array.make n false in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Dffc init ->
        state.(i) <- init;
        values.(i) <- init
      | Netlist.Constant b -> values.(i) <- b
      | _ -> ())
    netlist.Netlist.components;
  let input_index = Hashtbl.create 16 in
  List.iter (fun (s, i) -> Hashtbl.replace input_index s i) netlist.Netlist.inputs;
  let delay_of =
    match delay with
    | Some f -> f netlist
    | None -> default_delay netlist
  in
  {
    netlist;
    fanout = Netlist.fanout netlist;
    values;
    state;
    is_dff;
    inputs_now = Array.make n false;
    input_index;
    delay_of;
    changes_this_cycle = Array.make n 0;
    cycle = 0;
  }

let set_input t name b =
  match Hashtbl.find_opt t.input_index name with
  | Some i -> t.inputs_now.(i) <- b
  | None -> invalid_arg ("Event.set_input: unknown input " ^ name)

let eval_now t i =
  let fi k = t.values.(t.netlist.Netlist.fanin.(i).(k)) in
  match t.netlist.Netlist.components.(i) with
  | Netlist.Inport _ -> t.inputs_now.(i)
  | Netlist.Constant b -> b
  | Netlist.Dffc _ -> t.state.(i)
  | Netlist.Invc -> not (fi 0)
  | Netlist.And2c -> fi 0 && fi 1
  | Netlist.Or2c -> fi 0 || fi 1
  | Netlist.Xor2c -> fi 0 <> fi 1
  | Netlist.Outport _ -> fi 0

(* Propagate the current cycle's input/dff values through the
   combinational logic, one event at a time, then latch the dffs.
   Returns the settling report for the cycle. *)
let step t =
  Array.fill t.changes_this_cycle 0 (Array.length t.changes_this_cycle) 0;
  let heap = Heap.create () in
  let settle = ref 0 and transitions = ref 0 and glitches = ref 0 in
  let { Netlist.off; sink; _ } = t.fanout in
  let schedule_fanouts time i =
    for e = off.(i) to off.(i + 1) - 1 do
      let s = sink.(e) in
      if not t.is_dff.(s) then Heap.push heap (time + t.delay_of s, s)
    done
  in
  (* bootstrap: on the very first cycle nothing has ever been evaluated,
     so schedule every combinational component once; transport-delay
     propagation then self-corrects any stale reads *)
  if t.cycle = 0 then
    Array.iteri
      (fun i comp ->
        match comp with
        | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
        | Netlist.Outport _ ->
          Heap.push heap (t.delay_of i, i)
        | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> ())
      t.netlist.Netlist.components;
  (* time 0: inputs and dff outputs take their new values *)
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Inport _ ->
        if t.values.(i) <> t.inputs_now.(i) then begin
          t.values.(i) <- t.inputs_now.(i);
          schedule_fanouts 0 i
        end
      | Netlist.Dffc _ ->
        if t.values.(i) <> t.state.(i) then begin
          t.values.(i) <- t.state.(i);
          schedule_fanouts 0 i
        end
      | _ -> ())
    t.netlist.Netlist.components;
  while not (Heap.is_empty heap) do
    let time, i = Heap.pop heap in
    let value = eval_now t i in
    if value <> t.values.(i) then begin
      t.values.(i) <- value;
      incr transitions;
      t.changes_this_cycle.(i) <- t.changes_this_cycle.(i) + 1;
      if t.changes_this_cycle.(i) > 1 then incr glitches;
      if time > !settle then settle := time;
      schedule_fanouts time i
    end
  done;
  (* latch: dff state := its (settled) input *)
  let next = ref [] in
  Array.iteri
    (fun i d ->
      if d then next := (i, t.values.(t.netlist.Netlist.fanin.(i).(0))) :: !next)
    t.is_dff;
  List.iter (fun (i, b) -> t.state.(i) <- b) !next;
  t.cycle <- t.cycle + 1;
  { settle_time = !settle; transitions = !transitions; glitches = !glitches }

let output t name =
  match List.assoc_opt name t.netlist.Netlist.outputs with
  | Some i -> t.values.(i)
  | None -> invalid_arg ("Event.output: unknown output " ^ name)

let outputs t = List.map (fun (s, i) -> (s, t.values.(i))) t.netlist.Netlist.outputs
let cycle t = t.cycle
