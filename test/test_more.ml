(* A second wave of coverage: pattern algebra, optimizer idempotence,
   packed exhaustive equivalence, event-driven custom delays, VCD files,
   pool chunking, and cross-checks between independent implementations. *)

open Util
module P = Patterns
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module O = Hydra_netlist.Optimize
module S = Hydra_core.Stream_sim
module Equiv = Hydra_verify.Equiv
module Event = Hydra_scalar.Event
module Vcd = Hydra_scalar.Vcd
module Pool = Hydra_parallel.Pool

let suite =
  [
    (* pattern algebra *)
    qc "scan of a scan = scan of doubled op is NOT assumed; but scans agree on singleton op"
      QCheck2.Gen.(list_size (int_range 1 20) small_nat)
      (fun xs ->
        (* last element of an inclusive scan is the fold *)
        let scanned = P.scan_sklansky ( + ) xs in
        P.last scanned = List.fold_left ( + ) 0 xs);
    qc "mscanr/mscanl duality via reversal"
      QCheck2.Gen.(list small_nat)
      (fun xs ->
        (* mscanr f a xs = mirror of mscanl (flip cell) on reversed input *)
        let cell x c = (x + c, c) in
        let a1, ys1 = P.mscanr cell 0 xs in
        let a2, ys2 = P.mscanl cell 0 (List.rev xs) in
        a1 = a2 && ys1 = List.rev ys2);
    qc "tree_fold parenthesization irrelevant for associative ops"
      QCheck2.Gen.(list_size (int_range 1 33) (int_bound 100))
      (fun xs ->
        P.tree_fold min xs = List.fold_left min max_int xs);
    qc "butterfly followed by banyan of swaps is identity"
      (QCheck2.Gen.return ())
      (fun () ->
        let xs = List.init 8 Fun.id in
        let swap (a, b) = (b, a) in
        P.banyan swap (P.butterfly swap xs) = xs);
    qc "riffle . riffle . riffle = id on 8 elements"
      (QCheck2.Gen.return ())
      (fun () ->
        let xs = List.init 8 Fun.id in
        P.riffle (P.riffle (P.riffle xs)) = xs);
    (* optimizer properties *)
    qc ~count:30 "optimizer is idempotent" Test_engine.gen_case
      (fun (nodes, _, ()) ->
        let nl = O.optimize (Test_engine.netlist_of nodes) in
        let again = O.optimize nl in
        N.size again = N.size nl);
    tc "optimizer preserves port lists" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl =
          N.extract ~inputs:[ a; b ]
            ~outputs:[ ("x", G.and2 a G.one); ("y", G.or2 b G.zero) ]
        in
        let opt = O.optimize nl in
        check_bool "inputs kept" true
          (List.map fst opt.N.inputs = [ "a"; "b" ]);
        check_bool "outputs kept" true (List.map fst opt.N.outputs = [ "x"; "y" ]));
    (* packed exhaustive equivalence *)
    tc "packed_exhaustive proves mux identities" (fun () ->
        let mux_def =
          {
            Equiv.apply =
              (fun (type a) (module C : Hydra_core.Signal_intf.COMB
                 with type t = a) v ->
                match v with
                | [ c; x; y ] -> [ C.or2 (C.and2 (C.inv c) x) (C.and2 c y) ]
                | _ -> assert false);
          }
        in
        let mux_xor =
          {
            Equiv.apply =
              (fun (type a) (module C : Hydra_core.Signal_intf.COMB
                 with type t = a) v ->
                match v with
                | [ c; x; y ] -> [ C.xor2 x (C.and2 c (C.xor2 x y)) ]
                | _ -> assert false);
          }
        in
        check_bool "equal" true
          (Equiv.is_equivalent (Equiv.packed_exhaustive ~inputs:3 mux_def mux_xor)));
    tc "packed_exhaustive finds the counterexample lane" (fun () ->
        let c_id =
          {
            Equiv.apply =
              (fun (type a) (module C : Hydra_core.Signal_intf.COMB
                 with type t = a) v -> [ List.nth v 0 ]);
          }
        in
        let c_and =
          {
            Equiv.apply =
              (fun (type a) (module C : Hydra_core.Signal_intf.COMB
                 with type t = a) v -> [ C.and2 (List.nth v 0) (List.nth v 1) ]);
          }
        in
        match Equiv.packed_exhaustive ~inputs:2 c_id c_and with
        | Equiv.Equivalent -> Alcotest.fail "expected counterexample"
        | Equiv.Inequivalent cex ->
          let f = c_id.Equiv.apply (module Bit) in
          let g = c_and.Equiv.apply (module Bit) in
          check_bool "real witness" true (f cex <> g cex));
    tc "packed_exhaustive agrees with exhaustive on the 8-bit adder vs cla"
      (fun () ->
        let adder build =
          {
            Equiv.apply =
              (fun (type a) (module C : Hydra_core.Signal_intf.COMB
                 with type t = a) v ->
                let module A = Hydra_circuits.Arith.Make (C) in
                let xs, ys = P.split_at 8 (P.unriffle v) in
                let cout, sums =
                  match build with
                  | `R -> A.ripple_add C.zero (List.combine xs ys)
                  | `C -> A.cla_add C.zero (List.combine xs ys)
                in
                cout :: sums);
          }
        in
        check_bool "equal" true
          (Equiv.is_equivalent
             (Equiv.packed_exhaustive ~inputs:16 (adder `R) (adder `C))));
    (* event-driven engine with custom delays *)
    tc "event: custom per-gate delays change settle time" (fun () ->
        let a = G.input "a" in
        let chain = G.inv (G.inv (G.inv a)) in
        let nl = N.of_graph ~outputs:[ ("y", chain) ] in
        (* every gate takes 5 time units; ports remain free *)
        let delay nl i =
          match nl.N.components.(i) with
          | N.Invc | N.And2c | N.Or2c | N.Xor2c -> 5
          | _ -> 0
        in
        let sim = Event.create ~delay:(fun nl i -> delay nl i) nl in
        Event.set_input sim "a" false;
        ignore (Event.step sim);
        Event.set_input sim "a" true;
        let r = Event.step sim in
        (* three inverters at delay 5 each: settle at 15 *)
        check_int "settle" 15 r.Event.settle_time);
    (* vcd *)
    tc "vcd: writes a loadable file" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff x) ] in
        let sim = Hydra_scalar.Compiled.create nl in
        let vcd =
          Vcd.of_compiled_run sim ~inputs:[ ("x", [ true; false ]) ] ~cycles:2
        in
        let path = Filename.temp_file "hydra" ".vcd" in
        Vcd.to_file vcd path;
        let ic = open_in path in
        let len = in_channel_length ic in
        close_in ic;
        Sys.remove path;
        check_bool "non-empty" true (len > 50));
    (* pool chunk parameter *)
    tc "pool: explicit chunk size still covers the range" (fun () ->
        let pool = Pool.create ~domains:3 () in
        let hits = Array.make 1000 0 in
        Pool.parallel_for ~chunk:7 pool 0 1000 (fun i -> hits.(i) <- hits.(i) + 1);
        Pool.shutdown pool;
        check_bool "all once" true (Array.for_all (fun h -> h = 1) hits));
    (* signed multiplication *)
    qc "mult_signedw = two's-complement multiplication"
      QCheck2.Gen.(pair (int_range (-32) 31) (int_range (-32) 31))
      (fun (x, y) ->
        let module AB = Hydra_circuits.Arith.Make (Bit) in
        let out =
          AB.mult_signedw
            (Bitvec.of_signed_int ~width:6 x)
            (Bitvec.of_signed_int ~width:6 y)
        in
        List.length out = 12 && Bitvec.to_signed_int out = x * y);
    tc "sign_extend" (fun () ->
        let module AB = Hydra_circuits.Arith.Make (Bit) in
        check_int "-3 extends" (-3)
          (Bitvec.to_signed_int
             (AB.sign_extend ~width:8 (Bitvec.of_signed_int ~width:4 (-3))));
        check_int "5 extends" 5
          (Bitvec.to_signed_int
             (AB.sign_extend ~width:8 (Bitvec.of_signed_int ~width:4 5))));
    (* scale: a large netlist through the whole pipeline *)
    tc "scale: 16-bit wallace multiplier netlist (extract/levelize/compile/simulate)"
      (fun () ->
        let module WG = Hydra_circuits.Wallace.Make (G) in
        let xs = List.init 16 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 16 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let out = WG.multw xs ys in
        let nl =
          N.of_graph
            ~outputs:(List.mapi (fun i b -> (Printf.sprintf "p%d" i, b)) out)
        in
        check_bool "thousands of gates" true ((N.stats nl).N.gates > 1500);
        let sim = Hydra_scalar.Compiled.create nl in
        List.iter
          (fun (x, y) ->
            List.iteri
              (fun i b -> Hydra_scalar.Compiled.set_input sim (Printf.sprintf "x%d" i) b)
              (Bitvec.of_int ~width:16 x);
            List.iteri
              (fun i b -> Hydra_scalar.Compiled.set_input sim (Printf.sprintf "y%d" i) b)
              (Bitvec.of_int ~width:16 y);
            Hydra_scalar.Compiled.settle sim;
            let p =
              List.init 32 (fun i ->
                  Hydra_scalar.Compiled.output sim (Printf.sprintf "p%d" i))
            in
            check_int (Printf.sprintf "%d*%d" x y) (x * y) (Bitvec.to_int p))
          [ (0, 0); (1, 1); (65535, 65535); (12345, 54321); (256, 256) ]);
    (* fault simulation of a sequential circuit *)
    tc "fault: sequential circuit needs multiple observation cycles" (fun () ->
        let module R = Hydra_circuits.Regs.Make (G) in
        let x = G.input "x" in
        (* two-stage delay: faults on the first dff only show up a cycle
           later *)
        let q = G.dff (G.dff (G.inv x)) in
        let nl = N.of_graph ~outputs:[ ("q", q) ] in
        let module Fault = Hydra_verify.Fault in
        let vectors = [ [ true ]; [ false ] ] in
        let one_cycle = Fault.coverage ~cycles_per_vector:1 nl ~vectors in
        let three_cycles = Fault.coverage ~cycles_per_vector:3 nl ~vectors in
        check_bool "more cycles detect at least as much" true
          (three_cycles.Fault.detected >= one_cycle.Fault.detected);
        check_int "full coverage with propagation time"
          three_cycles.Fault.total three_cycles.Fault.detected);
    (* independent implementations cross-check: wallace vs array vs seq *)
    qc ~count:20 "three multipliers agree (wallace, array, sequential)"
      QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
      (fun (x, y) ->
        let module WB = Hydra_circuits.Wallace.Make (Bit) in
        let module AB = Hydra_circuits.Arith.Make (Bit) in
        let module ASq = Hydra_circuits.Arith_seq.Make (S) in
        let xs = Bitvec.of_int ~width:6 x and ys = Bitvec.of_int ~width:6 y in
        let w = Bitvec.to_int (WB.multw xs ys) in
        let a = Bitvec.to_int (AB.multw xs ys) in
        S.reset ();
        let o =
          ASq.multiply 6 (S.of_list [ true ])
            (List.map S.constant xs) (List.map S.constant ys)
        in
        let rows = S.run ~cycles:9 o.ASq.product in
        let sq = Bitvec.to_int (List.nth rows 8) in
        w = x * y && a = x * y && sq = x * y);
  ]
