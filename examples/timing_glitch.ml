(* Beneath the synchronous model: gate delays, settling and glitches
   (paper section 3).

   The synchronous model guarantees that every signal is valid once the
   critical-path delay has elapsed after a clock tick.  This example uses
   the event-driven engine to watch what happens *during* a cycle: the
   carry rippling down a 12-bit adder, a static-hazard circuit glitching,
   and the settle-time difference between a linear and a logarithmic
   adder — the physical facts the model abstracts away, and the reason it
   bans logic on clock signals.

   Run with: dune exec examples/timing_glitch.exe *)

module G = Hydra_core.Graph
module Bitvec = Hydra_core.Bitvec
module N = Hydra_netlist.Netlist
module L = Hydra_netlist.Levelize
module Event = Hydra_scalar.Event
module P = Hydra_core.Patterns

let adder_netlist ~variant n =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let module A = Hydra_circuits.Arith.Make (G) in
  let cout, sums =
    match variant with
    | `Ripple -> A.ripple_add G.zero (List.combine xs ys)
    | `Cla -> A.cla_add ~network:P.Sklansky G.zero (List.combine xs ys)
  in
  N.of_graph
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let set_word sim prefix ~width v =
  List.iteri
    (fun i b -> Event.set_input sim (Printf.sprintf "%s%d" prefix i) b)
    (Bitvec.of_int ~width v)

let () =
  let n = 12 in
  print_endline "=== 1. Worst-case carry propagation in a ripple adder ===";
  let nl = adder_netlist ~variant:`Ripple n in
  Printf.printf "critical path (levelized): %d gate delays\n"
    (L.critical_path nl);
  let sim = Event.create nl in
  set_word sim "x" ~width:n 0;
  set_word sim "y" ~width:n 0;
  ignore (Event.step sim);
  (* 0xfff + 1: the carry must ripple through every bit position *)
  set_word sim "x" ~width:n ((1 lsl n) - 1);
  set_word sim "y" ~width:n 1;
  let r = Event.step sim in
  Printf.printf
    "adding 0x%x + 1: settled at t=%d, %d transitions, %d glitches\n"
    ((1 lsl n) - 1)
    r.Event.settle_time r.Event.transitions r.Event.glitches;

  print_endline "\n=== 2. The same sum in a logarithmic adder ===";
  let nlc = adder_netlist ~variant:`Cla n in
  Printf.printf "critical path (levelized): %d gate delays\n"
    (L.critical_path nlc);
  let simc = Event.create nlc in
  set_word simc "x" ~width:n 0;
  set_word simc "y" ~width:n 0;
  ignore (Event.step simc);
  set_word simc "x" ~width:n ((1 lsl n) - 1);
  set_word simc "y" ~width:n 1;
  let rc = Event.step simc in
  Printf.printf "settled at t=%d — a faster clock is safe for this circuit\n"
    rc.Event.settle_time;

  print_endline "\n=== 3. A static hazard: why logic on clocks is banned ===";
  (* y = a AND (slow copy of NOT a): combinationally y = 0 always, but
     after a 0->1 edge on a, y pulses high until the inverter chain
     catches up.  Feeding such a signal to a clock input would produce a
     spurious clock edge — the paper's argument for the true conditional
     load register (reg1) instead of gated clocks. *)
  let a = G.input "a" in
  let slow_not_a = G.inv (G.inv (G.inv a)) in
  let hazard = N.of_graph ~outputs:[ ("y", G.and2 a slow_not_a) ] in
  let hs = Event.create hazard in
  Event.set_input hs "a" false;
  ignore (Event.step hs);
  Event.set_input hs "a" true;
  let hr = Event.step hs in
  Printf.printf
    "after a rises: y ends %b but made %d transitions (%d glitch pulses)\n"
    (Event.output hs "y") hr.Event.transitions hr.Event.glitches;
  print_endline
    "the synchronous model never sees the pulse: it samples after settling;";
  print_endline
    "a clock input would see it — hence reg1's mux, not an and-gated clock."
