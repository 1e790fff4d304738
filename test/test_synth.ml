(* Tests for the synthesis-side extensions: netlist optimizer, Wallace
   multiplier, sequential divider, pipelining combinators and the ASCII
   waveform renderer. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module O = Hydra_netlist.Optimize
module L = Hydra_netlist.Levelize
module S = Hydra_core.Stream_sim
module Compiled = Hydra_scalar.Compiled
module Wave = Hydra_engine.Wave
module W = Hydra_circuits.Wallace.Make (Hydra_core.Bit)
module WD = Hydra_circuits.Wallace.Make (Hydra_core.Depth)
module AD = Hydra_circuits.Arith.Make (Hydra_core.Depth)
module Div = Hydra_circuits.Divider.Make (Hydra_core.Stream_sim)
module Pipe = Hydra_circuits.Pipeline.Make (Hydra_core.Stream_sim)

(* random circuit machinery shared with the engine tests *)
let netlist_of nodes = Test_engine.netlist_of nodes

let run_compiled nl ~inputs ~cycles = Compiled.run (Compiled.create nl) ~inputs ~cycles

let suite =
  [
    (* optimizer *)
    tc "optimize: folds constants away" (fun () ->
        let a = G.input "a" in
        (* and2(a, 1) -> a; or2(a, 0) -> a; xor2(a,a) -> 0 *)
        let x = G.and2 a G.one in
        let y = G.or2 x G.zero in
        let z = G.xor2 y y in
        let nl = N.of_graph ~outputs:[ ("y", y); ("z", z) ] in
        let opt = O.optimize nl in
        check_int "no gates left" 0 (N.stats opt).N.gates;
        (* behaviour preserved *)
        let rows =
          run_compiled opt ~inputs:[ ("a", [ false; true ]) ] ~cycles:2
        in
        Alcotest.(check (list (list (pair string bool))))
          "semantics"
          [ [ ("y", false); ("z", false) ]; [ ("y", true); ("z", false) ] ]
          rows);
    tc "optimize: deduplicates structurally equal gates" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        (* two separately-built copies of the same and gate *)
        let g1 = G.and2 a b and g2 = G.and2 a b in
        let nl = N.of_graph ~outputs:[ ("x", G.xor2 g1 g2) ] in
        let opt = O.optimize nl in
        (* xor(g, g) = 0: everything folds *)
        check_int "gates" 0 (N.stats opt).N.gates);
    tc "optimize: commutative dedup" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl =
          N.of_graph ~outputs:[ ("x", G.or2 (G.and2 a b) (G.and2 b a)) ]
        in
        let opt = O.optimize nl in
        (* and(a,b) = and(b,a); or(g,g) = g -> just one and gate *)
        check_int "gates" 1 (N.stats opt).N.gates);
    tc "optimize: inverter pairs collapse" (fun () ->
        let a = G.input "a" in
        let nl = N.of_graph ~outputs:[ ("x", G.inv (G.inv (G.inv a))) ] in
        let opt = O.optimize nl in
        check_int "one inverter" 1 (N.stats opt).N.gates);
    tc "optimize: keeps dffs and sequential behaviour" (fun () ->
        let x = G.input "x" in
        let q = G.dff (G.and2 x G.one) in
        let nl = N.of_graph ~outputs:[ ("q", q) ] in
        let opt = O.optimize nl in
        check_int "dff kept" 1 (N.stats opt).N.dffs;
        check_int "and folded" 0 (N.stats opt).N.gates;
        let rows =
          run_compiled opt ~inputs:[ ("x", [ true; false ]) ] ~cycles:2
        in
        Alcotest.(check (list (list (pair string bool))))
          "delayed" [ [ ("q", false) ]; [ ("q", true) ] ] rows);
    tc "optimize: shrinks the CLA adder (shared carry logic)" (fun () ->
        let module A = Hydra_circuits.Arith.Make (G) in
        let xs = List.init 8 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 8 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let cout, sums = A.cla_add G.zero (List.combine xs ys) in
        let nl =
          N.of_graph
            ~outputs:
              (("cout", cout)
              :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
        in
        let opt = O.optimize nl in
        check_bool "smaller" true ((N.stats opt).N.gates < (N.stats nl).N.gates);
        check_bool "critical path not worse" true
          (L.critical_path opt <= L.critical_path nl));
    qc ~count:50 "optimize preserves behaviour on random circuits"
      Test_engine.gen_case
      (fun (nodes, rows, ()) ->
        let nl = netlist_of nodes in
        let opt = O.optimize nl in
        let cols = Bitvec.columns rows in
        let inputs = List.map2 (fun n vs -> (n, vs)) [ "a"; "b"; "c" ] cols in
        run_compiled nl ~inputs ~cycles:(List.length rows)
        = run_compiled opt ~inputs ~cycles:(List.length rows));
    qc ~count:50 "optimize never grows the circuit" Test_engine.gen_case
      (fun (nodes, _, ()) ->
        let nl = netlist_of nodes in
        N.size (O.optimize nl) <= N.size nl);
    qc ~count:50 "optimize is idempotent" Test_engine.gen_case
      (fun (nodes, _, ()) ->
        let once = O.optimize (netlist_of nodes) in
        O.optimize once = once);
    tc "optimize: idempotent and equivalent on the full CPU system"
      (fun () ->
        let nl = Hydra_cpu.Driver.system_netlist ~mem_bits:6 () in
        let opt = O.optimize nl in
        check_bool "shrinks the system" true
          ((N.stats opt).N.gates < (N.stats nl).N.gates);
        Alcotest.(check (pair int int))
          "second pass is a fixpoint"
          ((N.stats opt).N.gates, (N.stats opt).N.dffs)
          (let twice = O.optimize opt in
           ((N.stats twice).N.gates, (N.stats twice).N.dffs));
        (* sequential equivalence under random start/dma/data stimulus *)
        check_bool "sequentially equivalent" true
          (Hydra_verify.Equiv.seq_equivalent
             (Hydra_verify.Equiv.wide_random_netlists ~passes:2 ~cycles:24
                nl opt)));
    (* Wallace multiplier *)
    qc "wallace multw = integer multiplication"
      QCheck2.Gen.(pair (int_bound 255) (int_bound 255))
      (fun (x, y) ->
        let out =
          W.multw (Bitvec.of_int ~width:8 x) (Bitvec.of_int ~width:8 y)
        in
        List.length out = 16 && Bitvec.to_int out = x * y);
    qc "wallace handles mixed widths"
      QCheck2.Gen.(pair (int_bound 63) (int_bound 7))
      (fun (x, y) ->
        let out =
          W.multw (Bitvec.of_int ~width:6 x) (Bitvec.of_int ~width:3 y)
        in
        List.length out = 9 && Bitvec.to_int out = x * y);
    tc "wallace is shallower than the array multiplier (16 bits)" (fun () ->
        let depth f =
          Hydra_core.Depth.reset ();
          let xs = List.init 16 (fun _ -> Hydra_core.Depth.input) in
          let ys = List.init 16 (fun _ -> Hydra_core.Depth.input) in
          (Hydra_core.Depth.report (f xs ys)).Hydra_core.Depth.critical_path
        in
        let array_d = depth AD.multw in
        let wallace_d = depth (fun xs ys -> WD.multw xs ys) in
        check_bool
          (Printf.sprintf "wallace %d < array %d" wallace_d array_d)
          true (wallace_d < array_d));
    (* sequential divider *)
    tc "divider: 13 / 3 over 8 bits" (fun () ->
        S.reset ();
        let start = S.of_list [ true ] in
        let dividend = List.map S.constant (Bitvec.of_int ~width:8 13) in
        let divisor = List.map S.constant (Bitvec.of_int ~width:8 3) in
        let o = Div.divide 8 start dividend divisor in
        let outs = o.Div.quotient @ o.Div.remainder @ [ o.Div.busy ] in
        let rows = S.run ~cycles:12 outs in
        let final = List.nth rows 11 in
        let q, rest = Patterns.split_at 8 final in
        let r, busy = Patterns.split_at 8 rest in
        check_bool "not busy at end" false (List.hd busy);
        check_int "quotient" 4 (Bitvec.to_int q);
        check_int "remainder" 1 (Bitvec.to_int r));
    qc ~count:30 "divider matches integer division (6 bits)"
      QCheck2.Gen.(pair (int_bound 63) (int_range 1 63))
      (fun (x, y) ->
        S.reset ();
        let start = S.of_list [ true ] in
        let dividend = List.map S.constant (Bitvec.of_int ~width:6 x) in
        let divisor = List.map S.constant (Bitvec.of_int ~width:6 y) in
        let o = Div.divide 6 start dividend divisor in
        let rows = S.run ~cycles:10 (o.Div.quotient @ o.Div.remainder) in
        let final = List.nth rows 9 in
        let q, r = Patterns.split_at 6 final in
        Bitvec.to_int q = x / y && Bitvec.to_int r = x mod y);
    tc "divider: busy timing (n cycles of work)" (fun () ->
        S.reset ();
        let start = S.of_list [ true ] in
        let dividend = List.map S.constant (Bitvec.of_int ~width:4 9) in
        let divisor = List.map S.constant (Bitvec.of_int ~width:4 2) in
        let o = Div.divide 4 start dividend divisor in
        let rows = S.run ~cycles:8 [ o.Div.busy ] in
        check_rows "busy profile"
          [ [ false ]; [ true ]; [ true ]; [ true ]; [ true ]; [ false ];
            [ false ]; [ false ] ]
          rows);
    tc "divider: division by zero" (fun () ->
        S.reset ();
        let start = S.of_list [ true ] in
        let dividend = List.map S.constant (Bitvec.of_int ~width:4 11) in
        let divisor = List.map S.constant (Bitvec.of_int ~width:4 0) in
        let o = Div.divide 4 start dividend divisor in
        let rows = S.run ~cycles:7 (o.Div.quotient @ o.Div.remainder) in
        let final = List.nth rows 6 in
        let q, r = Patterns.split_at 4 final in
        check_int "quotient all ones" 15 (Bitvec.to_int q);
        check_int "remainder = dividend" 11 (Bitvec.to_int r));
    (* pipelining *)
    tc "pipeline: output equals combinational result, k cycles later"
      (fun () ->
        S.reset ();
        let module A = Hydra_circuits.Arith.Make (S) in
        let width = 4 in
        let xs t = Bitvec.of_int ~width (t * 3 mod 16) in
        let ys t = Bitvec.of_int ~width (t * 5 mod 16) in
        let in_x =
          List.init width (fun b -> S.input (fun t -> List.nth (xs t) b))
        in
        let in_y =
          List.init width (fun b -> S.input (fun t -> List.nth (ys t) b))
        in
        (* two stages: bitwise xor "precompute", then an adder *)
        let module Gt = Hydra_circuits.Gates.Make (S) in
        let stage1 w =
          let a, b = Patterns.split_at width w in
          Gt.xor2w a b @ b
        in
        let stage2 w =
          let p, b = Patterns.split_at width w in
          A.addw p b
        in
        let out = Pipe.pipeline [ stage1; stage2 ] (in_x @ in_y) in
        let rows = S.run ~cycles:8 out in
        (* expected: ((x xor y) + y) delayed 2 cycles *)
        List.iteri
          (fun t row ->
            if t >= 2 then begin
              let xv = (t - 2) * 3 mod 16 and yv = (t - 2) * 5 mod 16 in
              check_int
                (Printf.sprintf "cycle %d" t)
                (((xv lxor yv) + yv) land 15)
                (Bitvec.to_int row)
            end)
          rows);
    tc "pipeline: delay line is the identity shifted" (fun () ->
        S.reset ();
        let x = S.of_list [ true; false; true; true ] in
        let out = Pipe.delay 3 [ x ] in
        let rows = S.run ~cycles:7 out in
        check_rows "delayed"
          [ [ false ]; [ false ]; [ false ]; [ true ]; [ false ]; [ true ];
            [ true ] ]
          rows);
    tc "pipeline: reduces critical path (Depth)" (fun () ->
        let module PD = Hydra_circuits.Pipeline.Make (Hydra_core.Depth) in
        let module GD = Hydra_circuits.Gates.Make (Hydra_core.Depth) in
        let d = Hydra_core.Depth.analyze ~inputs:16 in
        (* 3 chained or-reductions, unpipelined vs pipelined *)
        let chain w =
          let r1 = GD.orw w in
          let r2 = GD.orw (r1 :: List.tl w) in
          [ GD.orw (r2 :: List.tl w) ]
        in
        let unpiped = d (fun w -> chain w) in
        let piped =
          d (fun w ->
              PD.pipeline
                [ (fun w -> GD.orw w :: List.tl w);
                  (fun w -> GD.orw w :: List.tl w);
                  (fun w -> [ GD.orw w ]) ]
                w)
        in
        check_bool "pipelined shallower" true
          (piped.Hydra_core.Depth.critical_path
          < unpiped.Hydra_core.Depth.critical_path));
    (* waveform rendering *)
    tc "wave: bit trace with edges" (fun () ->
        let s = Wave.render [ Wave.bit "x" [ false; true; true; false ] ] in
        check_bool "starts with name" true
          (String.length s > 2 && String.sub s 0 1 = "x");
        (* contains a rising and a falling edge *)
        check_bool "rising" true (String.contains s '/');
        check_bool "falling" true (String.contains s '\\'));
    tc "wave: bus trace shows changes only" (fun () ->
        let s = Wave.render [ Wave.bus ~hex_digits:2 "d" [ 5; 5; 9 ] ] in
        let count_bars =
          String.fold_left (fun acc c -> if c = '|' then acc + 1 else acc) 0 s
        in
        check_int "two changes" 2 count_bars);
  ]
