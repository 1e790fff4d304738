(* Tests for the stall/reset netlist transformations. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module T = Hydra_netlist.Transform
module Compiled = Hydra_scalar.Compiled

(* a 3-bit counter with enable, as the guinea pig *)
let counter_netlist () =
  let module R = Hydra_circuits.Regs.Make (G) in
  let en = G.input "en" in
  let count = R.counter 3 en in
  N.of_graph
    ~outputs:(List.mapi (fun i b -> (Printf.sprintf "c%d" i, b)) count)

let read_count sim =
  Bitvec.to_int
    (List.init 3 (fun i -> Compiled.output sim (Printf.sprintf "c%d" i)))

let suite =
  [
    tc "stall: 0 leaves behaviour unchanged" (fun () ->
        let nl = counter_netlist () in
        let nl' = T.insert_stall nl ~name:"stall" in
        let run nl extra =
          Compiled.run (Compiled.create nl)
            ~inputs:(("en", [ true; true; true; true ]) :: extra)
            ~cycles:4
        in
        let base = run nl [] in
        let stalled = run nl' [ ("stall", [ false; false; false; false ]) ] in
        check_bool "same rows" true (base = stalled));
    tc "stall: freezes and resumes (time dilation)" (fun () ->
        let nl = T.insert_stall (counter_netlist ()) ~name:"stall" in
        let sim = Compiled.create nl in
        Compiled.set_input sim "en" true;
        Compiled.set_input sim "stall" false;
        Compiled.step sim;
        Compiled.step sim;
        Compiled.settle sim;
        check_int "counted to 2" 2 (read_count sim);
        Compiled.set_input sim "stall" true;
        for _ = 1 to 5 do
          Compiled.step sim
        done;
        Compiled.settle sim;
        check_int "frozen at 2" 2 (read_count sim);
        Compiled.set_input sim "stall" false;
        Compiled.step sim;
        Compiled.settle sim;
        check_int "resumes" 3 (read_count sim));
    tc "stall: duplicate input name rejected" (fun () ->
        match T.insert_stall (counter_netlist ()) ~name:"en" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "reset: returns the machine to power-up synchronously" (fun () ->
        let nl = T.insert_reset (counter_netlist ()) ~name:"rst" in
        let sim = Compiled.create nl in
        Compiled.set_input sim "en" true;
        Compiled.set_input sim "rst" false;
        for _ = 1 to 5 do
          Compiled.step sim
        done;
        Compiled.settle sim;
        check_int "counted to 5" 5 (read_count sim);
        Compiled.set_input sim "rst" true;
        Compiled.step sim;
        Compiled.set_input sim "rst" false;
        Compiled.settle sim;
        check_int "back to 0" 0 (read_count sim);
        Compiled.step sim;
        Compiled.settle sim;
        check_int "counts again" 1 (read_count sim));
    tc "reset: respects dff_init power-up values" (fun () ->
        let x = G.input "x" in
        let q = G.dff_init true x in
        let nl = T.insert_reset (N.of_graph ~outputs:[ ("q", q) ]) ~name:"rst" in
        let sim = Compiled.create nl in
        Compiled.set_input sim "x" false;
        Compiled.set_input sim "rst" false;
        Compiled.step sim;
        Compiled.settle sim;
        check_bool "loaded 0" false (Compiled.output sim "q");
        Compiled.set_input sim "rst" true;
        Compiled.step sim;
        Compiled.settle sim;
        check_bool "reset to 1" true (Compiled.output sim "q"));
    tc "transforms compose: stall + reset" (fun () ->
        let nl =
          T.insert_reset
            (T.insert_stall (counter_netlist ()) ~name:"stall")
            ~name:"rst"
        in
        check_bool "both inputs present" true
          (List.mem_assoc "stall" nl.N.inputs && List.mem_assoc "rst" nl.N.inputs);
        (* still levelizes cleanly *)
        let lv = Hydra_netlist.Levelize.check nl in
        check_bool "acyclic" true (lv.Hydra_netlist.Levelize.cyclic = []));
    tc "xsim + reset: reset defines an X power-up machine" (fun () ->
        (* the paper's dff0 guarantee made checkable: with unknown power-up
           but a reset pulse, all state becomes defined *)
        let nl = T.insert_reset (counter_netlist ()) ~name:"rst" in
        let module Sim = Hydra_analyze.Sim in
        let module Tern = Hydra_core.Ternary in
        let sim = Sim.ternary_create nl in
        Sim.ternary_set_input sim "en" Tern.F;
        Sim.ternary_set_input sim "rst" Tern.T;
        check_bool "unknown before" true (Sim.ternary_unknown_dffs sim > 0);
        Sim.ternary_step sim;
        Sim.ternary_set_input sim "rst" Tern.F;
        check_int "all defined after one reset cycle" 0
          (Sim.ternary_unknown_dffs sim));
  ]
