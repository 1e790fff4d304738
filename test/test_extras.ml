(* Tests for the extension layers: ternary semantics + X-propagation
   simulation, packed bit-parallel semantics, LFSR / Gray counter / FIFO,
   Hamming ECC, and stuck-at fault simulation. *)

open Util
module T = Hydra_core.Ternary
module Packed = Hydra_core.Packed
module S = Hydra_core.Stream_sim
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Sim = Hydra_analyze.Sim
module Fault = Hydra_verify.Fault
module Equiv = Hydra_verify.Equiv
module SE = Hydra_circuits.Seq_extras.Make (Hydra_core.Stream_sim)
module Ecc = Hydra_circuits.Ecc.Make (Hydra_core.Bit)

let trits = [ T.F; T.T; T.X ]

let suite =
  [
    (* ternary logic *)
    tc "ternary: controlling values dominate X" (fun () ->
        check_bool "0 and x" true (T.and2 T.F T.X = T.F);
        check_bool "x and 0" true (T.and2 T.X T.F = T.F);
        check_bool "1 or x" true (T.or2 T.T T.X = T.T);
        check_bool "x or 1" true (T.or2 T.X T.T = T.T);
        check_bool "1 and x = x" true (T.and2 T.T T.X = T.X);
        check_bool "x xor 1 = x" true (T.xor2 T.X T.T = T.X);
        check_bool "inv x = x" true (T.inv T.X = T.X));
    tc "ternary: refines boolean logic" (fun () ->
        (* on known values, ternary ops agree with bool ops *)
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                match (T.to_bool a, T.to_bool b) with
                | Some va, Some vb ->
                  check_bool "and" true (T.and2 a b = T.of_bool (va && vb));
                  check_bool "or" true (T.or2 a b = T.of_bool (va || vb));
                  check_bool "xor" true (T.xor2 a b = T.of_bool (va <> vb))
                | _ -> ())
              trits)
          trits);
    qc "ternary: monotone wrt refinement"
      QCheck2.Gen.(pair (oneofl trits) (pair bool bool))
      (fun (a, (va, vb)) ->
        (* if a refines to va, then op a b refines to op va b *)
        let b = T.of_bool vb in
        (not (T.refines a (T.of_bool va)))
        || (T.refines (T.and2 a b) (T.and2 (T.of_bool va) b)
           && T.refines (T.or2 a b) (T.or2 (T.of_bool va) b)
           && T.refines (T.xor2 a b) (T.xor2 (T.of_bool va) b)));
    tc "ternary: to_string" (fun () ->
        check_string "01x" "01x" (T.to_string [ T.F; T.T; T.X ]));
    (* X-propagation simulation *)
    tc "xsim: uninitialized dff propagates X, then resolves" (fun () ->
        (* q = dff x with input driven: q is X at cycle 0, known after *)
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff x) ] in
        let sim = Sim.ternary_create nl in
        Sim.ternary_set_input sim "x" T.T;
        check_bool "cycle0 unknown" true (Sim.ternary_output sim "q" = T.X);
        Sim.ternary_step sim;
        check_bool "cycle1 known" true (Sim.ternary_output sim "q" = T.T);
        check_int "no unknown dffs left" 0 (Sim.ternary_unknown_dffs sim));
    tc "xsim: X is masked by controlling input" (fun () ->
        let x = G.input "x" in
        let q = G.dff x in
        let nl = N.of_graph ~outputs:[ ("y", G.and2 q (G.input "en")) ] in
        let sim = Sim.ternary_create nl in
        Sim.ternary_set_input sim "x" T.T;
        Sim.ternary_set_input sim "en" T.F;
        check_bool "masked" true (Sim.ternary_output sim "y" = T.F));
    tc "xsim: respect_init uses power-up values" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff_init true x) ] in
        let sim = Sim.ternary_create ~respect_init:true nl in
        check_bool "initial 1" true (Sim.ternary_output sim "q" = T.T));
    tc "xsim: control circuit depends on documented power-up values" (fun () ->
        (* the delay-element control assumes the paper's dff0 = 0 power-up
           (e.g. the sticky halt latch could wake up set); X-propagation
           flags that honestly: without initialization some state stays X,
           with the documented power-up everything is defined from the
           start.  The per-cycle counts are the ones bench E17 prints. *)
        let module CC = Hydra_cpu.Control_circuit.Make (G) in
        let build () =
          let start = G.input "start" in
          let ir_op = List.init 4 (fun i -> G.input (Printf.sprintf "op%d" i)) in
          let cond = G.input "cond" in
          let outs =
            CC.synthesize Hydra_cpu.Control.algorithm ~start ~ir_op ~cond
          in
          N.of_graph ~outputs:(("halted", outs.CC.halted) :: outs.CC.states)
        in
        let drive sim s =
          Sim.ternary_set_input sim "start" (T.of_bool s);
          for i = 0 to 3 do
            Sim.ternary_set_input sim (Printf.sprintf "op%d" i) T.F
          done;
          Sim.ternary_set_input sim "cond" T.F
        in
        (* unknown dffs at cycles 0..7: start high for cycle 0 only *)
        let counts sim =
          List.init 8 (fun c ->
              drive sim (c = 0);
              let n = Sim.ternary_unknown_dffs sim in
              Sim.ternary_step sim;
              n)
        in
        let nl = build () in
        let sim_x = Sim.ternary_create nl in
        Alcotest.(check (list int))
          "X power-up" [ 26; 10; 5; 3; 3; 3; 3; 3 ] (counts sim_x);
        for _ = 1 to 23 do
          Sim.ternary_step sim_x
        done;
        check_int "uninitialized state remains unknown" 3
          (Sim.ternary_unknown_dffs sim_x);
        let sim_i = Sim.ternary_create ~respect_init:true nl in
        drive sim_i true;
        check_bool "with power-up values everything is defined" true
          (List.for_all
             (fun (name, _) -> T.is_known (Sim.ternary_output sim_i name))
             nl.N.outputs);
        Alcotest.(check (list int))
          "declared power-up" [ 0; 0; 0; 0; 0; 0; 0; 0 ] (counts sim_i));
    (* packed semantics *)
    tc "packed: constants and bitwise ops" (fun () ->
        check_int "zero" 0 Packed.zero;
        check_bool "one is all lanes" true (Packed.lane Packed.one 61);
        check_int "and" 0b100 (Packed.and2 0b110 0b101);
        check_int "or" 0b111 (Packed.or2 0b110 0b101);
        check_int "xor" 0b011 (Packed.xor2 0b110 0b101);
        check_int "inv keeps lanes" (Packed.lane_mask - 1) (Packed.inv 1));
    qc "packed circuit = 62 parallel Bit circuits" (gen_word 12) (fun bits ->
        (* evaluate mux over packed lanes vs lane-by-lane *)
        let module MB = Hydra_circuits.Mux.Make (Hydra_core.Bit) in
        let module MP = Hydra_circuits.Mux.Make (Hydra_core.Packed) in
        let c = Packed.pack bits in
        let x = Packed.pack (List.map not bits) in
        let y = Packed.pack bits in
        let packed_out = MP.mux1 c x y in
        List.for_all
          (fun i ->
            Packed.lane packed_out i
            = MB.mux1 (Packed.lane c i) (Packed.lane x i) (Packed.lane y i))
          (List.init (List.length bits) Fun.id));
    tc "packed: enumerate covers all vectors exactly once" (fun () ->
        let passes = Packed.enumerate ~inputs:7 in
        let seen = Hashtbl.create 128 in
        Seq.iter
          (fun (words, count) ->
            for l = 0 to count - 1 do
              let v = List.map (fun w -> Packed.lane w l) words in
              Alcotest.(check bool) "fresh" false (Hashtbl.mem seen v);
              Hashtbl.add seen v ()
            done)
          passes;
        check_int "all 128" 128 (Hashtbl.length seen));
    tc "packed: exhaustive adder check in 2^16/62 passes" (fun () ->
        let module AP = Hydra_circuits.Arith.Make (Hydra_core.Packed) in
        let w = 8 in
        Seq.iter
          (fun (words, count) ->
            let xs, ys = Patterns.split_at w words in
            let _, sums = AP.ripple_add Packed.zero (List.combine xs ys) in
            for l = 0 to count - 1 do
              let x = Bitvec.to_int (List.map (fun b -> Packed.lane b l) xs) in
              let y = Bitvec.to_int (List.map (fun b -> Packed.lane b l) ys) in
              let s = Bitvec.to_int (List.map (fun b -> Packed.lane b l) sums) in
              if s <> (x + y) land 255 then Alcotest.fail "adder lane mismatch"
            done)
          (Packed.enumerate ~inputs:(2 * w)));
    (* LFSR *)
    tc "lfsr: 4-bit maximal taps cycle length 15" (fun () ->
        S.reset ();
        let outs = SE.lfsr ~taps:[ 0; 3 ] 4 S.one in
        let states =
          List.map Bitvec.to_int (S.run ~cycles:16 outs |> List.map Fun.id)
        in
        (* never hits the all-zero lockup state *)
        check_bool "nonzero" true (List.for_all (fun s -> s <> 0) states);
        (* visits 15 distinct states then repeats *)
        let distinct = List.sort_uniq compare (Patterns.split_at 15 states |> fst) in
        check_int "period 15" 15 (List.length distinct);
        check_int "wraps" (List.hd states) (List.nth states 15));
    tc "lfsr: enable gates stepping" (fun () ->
        S.reset ();
        let en = S.of_list [ false; false; true ] in
        let outs = SE.lfsr ~taps:[ 0; 3 ] 4 en in
        let states = List.map Bitvec.to_int (S.run ~cycles:3 outs) in
        check_int "held" (List.nth states 0) (List.nth states 1));
    tc "lfsr: bad tap rejected" (fun () ->
        S.reset ();
        Alcotest.check_raises "tap" (Invalid_argument "Seq_extras.lfsr: tap")
          (fun () -> ignore (SE.lfsr ~taps:[ 9 ] 4 S.one)));
    (* Gray counter *)
    tc "gray counter: successive outputs differ in one bit" (fun () ->
        S.reset ();
        let outs = SE.gray_counter 4 S.one in
        let rows = S.run ~cycles:17 outs in
        let popcount x = List.length (List.filter Fun.id x) in
        List.iteri
          (fun i row ->
            if i > 0 then begin
              let prev = List.nth rows (i - 1) in
              let diff = List.map2 ( <> ) prev row in
              check_int (Printf.sprintf "step %d" i) 1 (popcount diff)
            end)
          rows;
        (* full period: 16 distinct codes *)
        let codes = List.map Bitvec.to_int (Patterns.split_at 16 rows |> fst) in
        check_int "distinct" 16 (List.length (List.sort_uniq compare codes)));
    qc "gray conversions are inverse bijections" (gen_word 8) (fun bits ->
        let module GB = Hydra_circuits.Gates.Make (Hydra_core.Bit) in
        GB.gray_to_binary (GB.binary_to_gray bits) = bits
        && GB.binary_to_gray (GB.gray_to_binary bits) = bits);
    (* FIFO *)
    tc "fifo: push then pop returns data in order" (fun () ->
        S.reset ();
        let push = S.of_list [ true; true; false; false; false ] in
        let pop = S.of_list [ false; false; true; true; false ] in
        let data =
          List.init 4 (fun bit ->
              S.input (fun t ->
                  let v = if t = 0 then 5 else if t = 1 then 9 else 0 in
                  List.nth (Bitvec.of_int ~width:4 v) bit))
        in
        let f = SE.fifo ~k:2 ~width:4 push pop data in
        let rows = S.run ~cycles:5 (f.SE.out @ [ f.SE.empty; f.SE.full ]) in
        let head t = Bitvec.to_int (Patterns.split_at 4 (List.nth rows t) |> fst) in
        let flag t i = List.nth (List.nth rows t) (4 + i) in
        check_bool "starts empty" true (flag 0 0);
        (* cycle 2: both pushes committed; head = 5 *)
        check_int "head after pushes" 5 (head 2);
        check_bool "not empty" false (flag 2 0);
        (* cycle 3: after first pop, head = 9 *)
        check_int "fifo order" 9 (head 3);
        (* cycle 4: both popped -> empty again *)
        check_bool "empty again" true (flag 4 0));
    tc "fifo: full flag blocks pushes" (fun () ->
        S.reset ();
        let f = SE.fifo ~k:1 ~width:2 S.one S.zero (List.init 2 (fun _ -> S.one)) in
        let rows = S.run ~cycles:5 [ f.SE.full; f.SE.empty ] in
        (* capacity 2: full from cycle 2 onwards, and it stays full *)
        check_rows "flags"
          [ [ false; true ]; [ false; false ]; [ true; false ];
            [ true; false ]; [ true; false ] ]
          rows);
    (* Hamming ECC *)
    tc "ecc: encode/decode identity without errors" (fun () ->
        List.iter
          (fun v ->
            let data = Bitvec.of_int ~width:4 v in
            let decoded, err = Ecc.decode (Ecc.encode data) in
            check_int (Printf.sprintf "d=%d" v) v (Bitvec.to_int decoded);
            check_bool "no error flagged" false err)
          (List.init 16 Fun.id));
    tc "ecc: corrects every single-bit error" (fun () ->
        List.iter
          (fun v ->
            let data = Bitvec.of_int ~width:4 v in
            let code = Ecc.encode data in
            List.iteri
              (fun flip _ ->
                let corrupted =
                  List.mapi (fun i b -> if i = flip then not b else b) code
                in
                let decoded, err = Ecc.decode corrupted in
                check_int
                  (Printf.sprintf "d=%d flip=%d" v flip)
                  v (Bitvec.to_int decoded);
                check_bool "error flagged" true err)
              code)
          (List.init 16 Fun.id));
    tc "ecc: BDD proof — decode . corrupt_i . encode = id, all i" (fun () ->
        (* for each fixed flip position, prove correction symbolically *)
        let id_circuit =
          {
            Equiv.apply =
              (fun (type a)
                   (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
                v);
          }
        in
        List.iter
          (fun flip ->
            let through =
              {
                Equiv.apply =
                  (fun (type a)
                       (module C : Hydra_core.Signal_intf.COMB with type t = a)
                       v ->
                    let module E = Hydra_circuits.Ecc.Make (C) in
                    let code = E.encode v in
                    let corrupted =
                      List.mapi (fun i b -> if i = flip then C.inv b else b) code
                    in
                    fst (E.decode corrupted));
              }
            in
            check_bool
              (Printf.sprintf "flip %d" flip)
              true
              (Equiv.is_equivalent (Equiv.bdd_equiv ~inputs:4 id_circuit through)))
          (List.init 7 Fun.id));
    tc "ecc: secded flags double errors without miscorrecting" (fun () ->
        let data = Bitvec.of_int ~width:4 0b1011 in
        let code = Ecc.encode_secded data in
        (* flip bits 1 and 5 *)
        let corrupted =
          List.mapi (fun i b -> if i = 1 || i = 5 then not b else b) code
        in
        let _, single, double = Ecc.decode_secded corrupted in
        check_bool "double flagged" true double;
        check_bool "not treated as single" false single);
    (* fault simulation *)
    tc "fault: all faults enumerated" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl = N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ] in
        (* 2 gates -> 4 faults *)
        check_int "count" 4 (List.length (Fault.all_faults nl)));
    tc "fault: exhaustive vectors give full coverage on fig1" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl = N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ] in
        let cov = Fault.coverage nl ~vectors:(Hydra_core.Bit.vectors 2) in
        check_int "all detected" cov.Fault.total cov.Fault.detected);
    tc "fault: insufficient vectors leave faults undetected" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl = N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ] in
        let cov = Fault.coverage nl ~vectors:[ [ false; false ] ] in
        check_bool "undetected exist" true (cov.Fault.detected < cov.Fault.total));
    tc "fault: injection changes the right behaviour" (fun () ->
        let a = G.input "a" in
        let nl = N.of_graph ~outputs:[ ("x", G.inv a) ] in
        match Fault.all_faults nl with
        | { Fault.site; _ } :: _ ->
          let bad = Fault.inject nl { Fault.site; stuck = true } in
          let sim = Hydra_scalar.Compiled.create bad in
          Hydra_scalar.Compiled.set_input sim "a" true;
          Hydra_scalar.Compiled.settle sim;
          check_bool "stuck at 1" true (Hydra_scalar.Compiled.output sim "x")
        | [] -> Alcotest.fail "no faults");
    tc "fault: generated tests reach full coverage on an adder" (fun () ->
        let module A = Hydra_circuits.Arith.Make (G) in
        let xs = List.init 4 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 4 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
        let nl =
          N.of_graph
            ~outputs:
              (("cout", cout)
              :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
        in
        let _, cov = Fault.generate_tests ~target:0.95 nl in
        check_bool "95%+ coverage" true (Fault.ratio cov >= 0.95));
  ]
