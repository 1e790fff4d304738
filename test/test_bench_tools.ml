(* Tests for the simulation-driver toolkit: the test-bench DSL,
   checkpointing, sequential multiplier and square root, and a formal
   one-hot proof of the control circuit by reachability. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module S = Hydra_core.Stream_sim
module Compiled = Hydra_scalar.Compiled
module Tb = Hydra_engine.Testbench
module Bmc = Hydra_verify.Bmc
module AS = Hydra_circuits.Arith_seq.Make (Hydra_core.Stream_sim)

let adder_netlist n =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let module A = Hydra_circuits.Arith.Make (G) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let suite =
  [
    (* test bench DSL *)
    tc "testbench: word stimulus and expectations pass" (fun () ->
        let nl = adder_netlist 8 in
        let r =
          Tb.run ~cycles:3
            ~stimuli:
              [ Tb.Word_values ("x", 8, [ 1; 100; 255 ]);
                Tb.Word_values ("y", 8, [ 2; 55; 1 ]) ]
            ~expectations:
              [ Tb.Expect_word { cycle = 0; prefix = "s"; width = 8; value = 3 };
                Tb.Expect_word { cycle = 1; prefix = "s"; width = 8; value = 155 };
                Tb.Expect_word { cycle = 2; prefix = "s"; width = 8; value = 0 };
                Tb.Expect_bit { cycle = 2; port = "cout"; value = true } ]
            nl
        in
        check_bool "passed" true (Tb.passed r);
        check_bool "report" true (Tb.report_string r = "PASS (3 cycles)"));
    tc "testbench: mismatches are reported with details" (fun () ->
        let nl = adder_netlist 4 in
        let r =
          Tb.run ~cycles:1
            ~stimuli:
              [ Tb.Word_values ("x", 4, [ 1 ]); Tb.Word_values ("y", 4, [ 1 ]) ]
            ~expectations:
              [ Tb.Expect_word { cycle = 0; prefix = "s"; width = 4; value = 3 } ]
            nl
        in
        check_bool "failed" false (Tb.passed r);
        check_int "one failure" 1 (List.length r.Tb.failures);
        let f = List.hd r.Tb.failures in
        check_string "expected" "3" f.Tb.expected;
        check_string "got" "2" f.Tb.got;
        (* the report includes waveforms *)
        check_bool "waveforms in report" true
          (String.length (Tb.report_string r) > 40));
    tc "testbench: stimulus holds its last value" (fun () ->
        let nl = adder_netlist 4 in
        let r =
          Tb.run ~cycles:4
            ~stimuli:
              [ Tb.Word_values ("x", 4, [ 5 ]); Tb.Word_values ("y", 4, [ 1 ]) ]
            ~expectations:
              [ Tb.Expect_word { cycle = 3; prefix = "s"; width = 4; value = 6 } ]
            nl
        in
        check_bool "passed" true (Tb.passed r));
    tc "testbench: function stimulus and interp engine" (fun () ->
        let nl = adder_netlist 4 in
        let r =
          Tb.run ~cycles:5
            ~stimuli:
              [ Tb.Word_fun ("x", 4, (fun t -> t)); Tb.Word_fun ("y", 4, (fun t -> t)) ]
            ~expectations:
              (List.init 5 (fun t ->
                   Tb.Expect_word { cycle = t; prefix = "s"; width = 4; value = 2 * t }))
            nl
        in
        check_bool "passed" true (Tb.passed r));
    (* checkpointing *)
    tc "checkpoint: save/restore replays identically" (fun () ->
        let x = G.input "x" in
        let module R = Hydra_circuits.Regs.Make (G) in
        let count = R.counter 4 x in
        let nl =
          N.of_graph
            ~outputs:(List.mapi (fun i b -> (Printf.sprintf "c%d" i, b)) count)
        in
        let sim = Compiled.create nl in
        Compiled.set_input sim "x" true;
        for _ = 1 to 5 do
          Compiled.step sim
        done;
        let snap = Compiled.save sim in
        Compiled.settle sim;
        let at5 = Compiled.outputs sim in
        for _ = 1 to 7 do
          Compiled.step sim
        done;
        Compiled.restore sim snap;
        Compiled.settle sim;
        check_bool "state restored" true (Compiled.outputs sim = at5);
        (* and the future replays the same *)
        Compiled.step sim;
        Compiled.settle sim;
        let a = Compiled.outputs sim in
        Compiled.restore sim snap;
        Compiled.step sim;
        Compiled.settle sim;
        check_bool "deterministic replay" true (Compiled.outputs sim = a));
    tc "checkpoint: wrong circuit rejected" (fun () ->
        let nl1 = adder_netlist 4 and nl2 = adder_netlist 8 in
        let s1 = Compiled.create nl1 and s2 = Compiled.create nl2 in
        let snap = Compiled.save s1 in
        match Compiled.restore s2 snap with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    (* sequential multiplier *)
    qc ~count:30 "sequential multiplier = integer multiplication (6 bits)"
      QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
      (fun (x, y) ->
        S.reset ();
        let start = S.of_list [ true ] in
        let xs = List.map S.constant (Bitvec.of_int ~width:6 x) in
        let ys = List.map S.constant (Bitvec.of_int ~width:6 y) in
        let o = AS.multiply 6 start xs ys in
        let rows = S.run ~cycles:9 o.AS.product in
        Bitvec.to_int (List.nth rows 8) = x * y);
    tc "sequential multiplier busy profile" (fun () ->
        S.reset ();
        let start = S.of_list [ true ] in
        let xs = List.map S.constant (Bitvec.of_int ~width:4 9) in
        let ys = List.map S.constant (Bitvec.of_int ~width:4 7) in
        let o = AS.multiply 4 start xs ys in
        let rows = S.run ~cycles:8 (o.AS.mult_busy :: o.AS.product) in
        let busy = List.map List.hd rows in
        check_bool_list "busy"
          [ false; true; true; true; true; false; false; false ] busy;
        check_int "product" 63 (Bitvec.to_int (List.tl (List.nth rows 7))));
    (* sequential square root *)
    qc ~count:40 "sqrt: root^2 <= x < (root+1)^2 (8 bits)"
      (QCheck2.Gen.int_bound 255)
      (fun x ->
        S.reset ();
        let start = S.of_list [ true ] in
        let xs = List.map S.constant (Bitvec.of_int ~width:8 x) in
        let o = AS.sqrt 8 start xs in
        let rows = S.run ~cycles:7 (o.AS.root @ o.AS.sqrt_rem) in
        let final = List.nth rows 6 in
        let root, rem = Patterns.split_at 4 final in
        let r = Bitvec.to_int root and rm = Bitvec.to_int rem in
        (r * r) + rm = x && r * r <= x && (r + 1) * (r + 1) > x);
    tc "sqrt of perfect squares" (fun () ->
        List.iter
          (fun (x, expect) ->
            S.reset ();
            let start = S.of_list [ true ] in
            let xs = List.map S.constant (Bitvec.of_int ~width:8 x) in
            let o = AS.sqrt 8 start xs in
            let rows = S.run ~cycles:7 o.AS.root in
            check_int (Printf.sprintf "sqrt %d" x) expect
              (Bitvec.to_int (List.nth rows 6)))
          [ (0, 0); (1, 1); (4, 2); (9, 3); (16, 4); (100, 10); (225, 15) ]);
    (* formal: one-hot control invariant via reachability *)
    tc "control circuit: one-hot invariant proved by reachability" (fun () ->
        (* build the RISC control circuit with a 'onehot' output asserting
           exactly one state token is set, then explore every reachable
           state under all inputs *)
        let module CC = Hydra_cpu.Control_circuit.Make (G) in
        let module Gt = Hydra_circuits.Gates.Make (G) in
        (* the invariant requires the start protocol (one pulse): a free
           start input lets the checker inject a second token, which it
           duly found.  Model start as a power-up one-shot. *)
        let start = G.dff_init true G.zero in
        (* reduce input blowup: drive only 2 opcode bits, rest constant *)
        let ir_op = [ G.zero; G.zero; G.input "op2"; G.input "op3" ] in
        let cond = G.input "cond" in
        let outs =
          CC.synthesize Hydra_cpu.Control.algorithm ~start ~ir_op ~cond
        in
        let tokens = List.map snd outs.CC.states in
        (* exactly one of (at most one) ... before start, zero tokens are
           set; after start, exactly one.  Invariant: at most one token. *)
        let pairs =
          List.concat_map
            (fun (i, a) ->
              List.filter_map
                (fun (j, b) ->
                  if j > i then Some (G.and2 a b) else None)
                (List.mapi (fun j b -> (j, b)) tokens))
            (List.mapi (fun i a -> (i, a)) tokens)
        in
        let at_most_one = G.inv (Gt.orw pairs) in
        let nl = N.of_graph ~outputs:[ ("prop", at_most_one) ] in
        match Bmc.check ~max_states:2_000_000 ~property:"prop" ~depth:12 nl with
        | Bmc.Holds -> ()
        | Bmc.Violated v ->
          Alcotest.fail
            (Printf.sprintf "two tokens live at depth %d" v.Bmc.depth));
  ]
