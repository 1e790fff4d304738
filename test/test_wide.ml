(* Tests for the 62-lane wide engine (Compiled_wide, a k = 1 Slab) and its
   surrounding toolkit: every lane of a wide run must agree bit-for-bit
   with a scalar Compiled run and with the stream semantics — on random
   combinational and dff-heavy circuits, under the ?optimize pre-pass,
   and for the full section-6 CPU running a different program instance in
   each lane. *)

open Util
module S = Hydra_core.Stream_sim
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Packed = Hydra_core.Packed
module Compiled = Hydra_scalar.Compiled
module Wide = Hydra_engine.Compiled_wide
module Slab = Hydra_engine.Slab
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Equiv = Hydra_verify.Equiv

(* Random synchronous circuits, as in Test_engine: node i is (op, src1,
   src2) with sources indexing into inputs @ earlier nodes. *)
type rop = Rinv | Rand | Ror | Rxor | Rdff

let build (type s) (module X : Hydra_core.Signal_intf.CLOCKED with type t = s)
    ~(inputs : s list) (nodes : (rop * int * int) list) : s list =
  let pool = ref (Array.of_list inputs) in
  List.iter
    (fun (op, s1, s2) ->
      let arr = !pool in
      let a = arr.(s1 mod Array.length arr)
      and b = arr.(s2 mod Array.length arr) in
      let v =
        match op with
        | Rinv -> X.inv a
        | Rand -> X.and2 a b
        | Ror -> X.or2 a b
        | Rxor -> X.xor2 a b
        | Rdff -> X.dff a
      in
      pool := Array.append arr [| v |])
    nodes;
  let arr = !pool in
  let n = Array.length arr in
  List.init (min 4 n) (fun i -> arr.(n - 1 - i))

let gen_nodes ops =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (triple (oneofl ops) (int_bound 1000) (int_bound 1000)))

let all_ops = [ Rinv; Rand; Ror; Rxor; Rdff ]

(* three extra Rdff entries: sequential state dominates *)
let dff_heavy_ops = [ Rinv; Rand; Ror; Rxor; Rdff; Rdff; Rdff; Rdff ]

let lanes_tested = 8

(* per lane, 12 cycles of 3 input bits *)
let gen_lane_rows =
  QCheck2.Gen.(
    list_size (return lanes_tested)
      (list_size (return 12) (list_size (return 3) bool)))

let gen_case ops = QCheck2.Gen.pair (gen_nodes ops) gen_lane_rows

let netlist_of nodes =
  let a = G.input "a" and b = G.input "b" and c = G.input "c" in
  let outs = build (module G) ~inputs:[ a; b; c ] nodes in
  N.extract ~inputs:[ a; b; c ]
    ~outputs:(List.mapi (fun i o -> (Printf.sprintf "o%d" i, o)) outs)

let stream_reference nodes rows =
  S.simulate ~inputs:(Bitvec.columns rows) ~cycles:(List.length rows)
    (fun ins -> build (module S) ~inputs:ins nodes)

let compiled_rows ?optimize nodes rows =
  let nl = netlist_of nodes in
  let cols = Bitvec.columns rows in
  let inputs = List.map2 (fun n vs -> (n, vs)) [ "a"; "b"; "c" ] cols in
  Compiled.(run (create ?optimize nl)) ~inputs ~cycles:(List.length rows)
  |> List.map (List.map snd)

(* Run all [lane_rows] stimulus streams at once in the wide engine (lane l
   carries stream l), return the per-lane output rows. *)
let wide_lane_rows ?(optimize = false) nodes lane_rows =
  let nl = netlist_of nodes in
  let nl = if optimize then Hydra_netlist.Optimize.optimize nl else nl in
  let cycles = List.length (List.hd lane_rows) in
  let packed_inputs =
    List.mapi
      (fun j name ->
        ( name,
          List.init cycles (fun t ->
              Packed.pack
                (List.map (fun rows -> List.nth (List.nth rows t) j) lane_rows))
        ))
      [ "a"; "b"; "c" ]
  in
  let rows = Slab.run_packed (Wide.create nl) ~inputs:packed_inputs ~cycles in
  List.init (List.length lane_rows) (fun l ->
      List.map (List.map (fun (_, w) -> Packed.lane w l)) rows)

(* The section-6 CPU: sum the integers 1..n, with n patched per lane. *)
let sum_loop_src =
  "  ldval R1,0[R0]\n\
  \  load R2,n[R0]\n\
   loop: cmpeq R3,R2,R0\n\
  \  jumpt R3,done[R0]\n\
  \  add R1,R1,R2\n\
  \  ldval R4,1[R0]\n\
  \  sub R2,R2,R4\n\
  \  jump loop[R0]\n\
   done: store R1,result[R0]\n\
  \  halt\n\
   n: data 6\n\
   result: data 0\n"

let cpu_netlist () =
  let module SysG = Hydra_cpu.System.Make (G) in
  let word n = List.init 16 (fun i -> G.input (Printf.sprintf "%s%d" n i)) in
  let start = G.input "start" and dma = G.input "dma" in
  let da = word "da" and dd = word "dd" in
  let outs =
    SysG.system ~mem_bits:6 { SysG.start; dma; dma_a = da; dma_d = dd }
  in
  N.extract
    ~inputs:([ start; dma ] @ da @ dd)
    ~outputs:
      (("halted", outs.SysG.halted)
      :: List.mapi (fun i s -> (Printf.sprintf "pc%d" i, s)) outs.SysG.dp.SysG.D.pc)

(* The DMA-load / start / run input schedule of Driver.run_structural for
   one program, as (port, value) rows per cycle. *)
let cpu_schedule program cycles =
  let prog = Array.of_list program in
  let len = Array.length prog in
  let word_bits prefix v =
    List.mapi
      (fun i b -> (Printf.sprintf "%s%d" prefix i, b))
      (Bitvec.of_int ~width:16 v)
  in
  List.init cycles (fun t ->
      let dma_active = t < len in
      [ ("start", t = len); ("dma", dma_active) ]
      @ word_bits "da" (if dma_active then t else 0)
      @ word_bits "dd" (if dma_active then prog.(t) else 0))

let suite =
  [
    (* engine agreement on random circuits, every lane at once *)
    qc ~count:40 "wide lanes = compiled = stream semantics"
      (gen_case all_ops)
      (fun (nodes, lane_rows) ->
        let wide = wide_lane_rows nodes lane_rows in
        List.for_all2
          (fun rows wide_rows ->
            let scalar = compiled_rows nodes rows in
            let stream = stream_reference nodes rows in
            wide_rows = scalar && wide_rows = stream)
          lane_rows wide);
    qc ~count:40 "wide lanes = compiled on dff-heavy circuits"
      (gen_case dff_heavy_ops)
      (fun (nodes, lane_rows) ->
        List.for_all2
          (fun rows wide_rows -> wide_rows = compiled_rows nodes rows)
          lane_rows
          (wide_lane_rows nodes lane_rows));
    (* the ?optimize pre-pass must be observation-equivalent *)
    qc ~count:40 "compiled ~optimize = compiled" (gen_case all_ops)
      (fun (nodes, lane_rows) ->
        let rows = List.hd lane_rows in
        compiled_rows ~optimize:true nodes rows = compiled_rows nodes rows);
    qc ~count:40 "wide ~optimize lanes = compiled" (gen_case dff_heavy_ops)
      (fun (nodes, lane_rows) ->
        List.for_all2
          (fun rows wide_rows -> wide_rows = compiled_rows nodes rows)
          lane_rows
          (wide_lane_rows ~optimize:true nodes lane_rows));
    (* sequential random equivalence on the wide engine *)
    qc ~count:25 "wide_random_netlists: optimize is equivalence"
      (gen_nodes dff_heavy_ops)
      (fun nodes ->
        let nl = netlist_of nodes in
        Equiv.seq_equivalent
          (Equiv.wide_random_netlists ~passes:2 ~cycles:12 nl
             (Hydra_netlist.Optimize.optimize nl)));
    tc "wide_random_netlists: detects an inverted output" (fun () ->
        let mk invert =
          let a = G.input "a" and b = G.input "b" in
          let x = G.and2 (G.inv a) b in
          N.extract ~inputs:[ a; b ]
            ~outputs:[ ("x", (if invert then G.inv x else x)) ]
        in
        match Equiv.wide_random_netlists ~passes:1 ~cycles:2 (mk false) (mk true) with
        | Equiv.Seq_equivalent -> Alcotest.fail "expected mismatch"
        | Equiv.Seq_mismatch { output; cycle; inputs } ->
          check_string "output" "x" output;
          check_int "cycle" 0 cycle;
          check_int "streams" 2 (List.length inputs));
    (* the CPU with a different program instance in every lane *)
    tc "cpu: different n per lane, lanes = scalar runs" (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let program = Asm.assemble sum_loop_src in
        let n_addr = List.length program - 2 in
        let lanes_n = [ 2; 6; 9 ] in
        let programs =
          List.map
            (fun n -> List.mapi (fun i w -> if i = n_addr then n else w) program)
            lanes_n
        in
        let cycles = List.length program + 420 in
        let schedules = List.map (fun p -> cpu_schedule p cycles) programs in
        let nl = cpu_netlist () in
        let scalars = List.map (fun _ -> Compiled.create nl) programs in
        let wide = Wide.create nl in
        let out_names = List.map fst nl.N.outputs in
        for t = 0 to cycles - 1 do
          (* drive scalar sim l with schedule l, the wide sim with all *)
          List.iteri
            (fun l (sim, sched) ->
              List.iter
                (fun (port, v) ->
                  Compiled.set_input sim port v;
                  Slab.set_input_lane wide port l v)
                (List.nth sched t))
            (List.combine scalars schedules);
          Wide.settle wide;
          List.iter (fun sim -> Compiled.settle sim) scalars;
          List.iter
            (fun name ->
              let w = Wide.output wide name in
              List.iteri
                (fun l sim ->
                  if Packed.lane w l <> Compiled.output sim name then
                    Alcotest.failf "cycle %d, lane %d, output %s diverges" t l
                      name)
                scalars)
            out_names;
          Wide.tick wide;
          List.iter (fun sim -> Compiled.tick sim) scalars
        done;
        (* the test must actually have run the programs to completion *)
        List.iteri
          (fun l _ ->
            check_bool
              (Printf.sprintf "lane %d halted" l)
              true
              (Slab.output_lane wide "halted" l))
          lanes_n);
    (* batched combinational testbench *)
    tc "run_vectors = scalar settle, with and without pool" (fun () ->
        let module A = Hydra_circuits.Arith.Make (G) in
        let xs = List.init 8 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 8 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
        let nl =
          N.extract ~inputs:(xs @ ys)
            ~outputs:
              (("cout", cout)
              :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
        in
        let st = Random.State.make [| 42 |] in
        let vectors =
          Array.init 200 (fun _ -> Array.init 16 (fun _ -> Random.State.bool st))
        in
        let wide = Wide.create nl in
        let got = Slab.run_vectors wide vectors in
        let scalar = Compiled.create nl in
        let in_names = List.map fst nl.N.inputs in
        Array.iteri
          (fun k v ->
            Compiled.reset scalar;
            List.iteri (fun j name -> Compiled.set_input scalar name v.(j)) in_names;
            Compiled.settle scalar;
            let expect =
              Array.of_list (List.map snd (Compiled.outputs scalar))
            in
            if got.(k) <> expect then Alcotest.failf "vector %d diverges" k)
          vectors;
        let sh = Sharded.of_base ~domains:4 wide in
        let got_pooled = Sharded.run_vectors sh vectors in
        Sharded.shutdown sh;
        check_bool "pooled = sequential" true (got_pooled = got));
    tc "testbench run_batched = scalar run per case" (fun () ->
        let x = G.input "x" and en = G.input "en" in
        let q = G.dff (G.xor2 x (G.and2 en (G.input "y"))) in
        let nl =
          N.extract ~inputs:[ x; en; G.input "y" ]
            ~outputs:[ ("q", q) ]
        in
        let case k =
          let stimuli =
            [
              Testbench.Bit_fun ("x", fun t -> (t + k) mod 3 = 0);
              Testbench.Bit_values ("en", [ k mod 2 = 0; true ]);
              Testbench.Bit_fun ("y", fun t -> t mod 2 = k mod 2);
            ]
          in
          let expectations =
            (* one deliberately wrong expectation in case 5 *)
            if k = 5 then [ Testbench.Expect_bit { cycle = 0; port = "q"; value = true } ]
            else []
          in
          (stimuli, expectations)
        in
        let cases = Array.init 100 case in
        let reports = Testbench.run_batched ~cycles:8 ~cases nl in
        Array.iteri
          (fun k (stimuli, expectations) ->
            let scalar = Testbench.run ~cycles:8 ~stimuli ~expectations nl in
            if reports.(k) <> scalar then Alcotest.failf "case %d report differs" k)
          cases;
        check_bool "case 5 failed" false (Testbench.passed reports.(5));
        check_bool "case 6 passed" true (Testbench.passed reports.(6)));
    (* packed_random agrees with scalar random and finds real bugs *)
    tc "packed_random: equivalence and counterexamples" (fun () ->
        let adder broken =
          {
            Equiv.apply =
              (fun (type a)
                   (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
                let module A = Hydra_circuits.Arith.Make (C) in
                let xs, ys = Patterns.split_at 4 v in
                let cout, sums = A.ripple_add C.zero (List.combine xs ys) in
                if broken then C.inv cout :: sums else cout :: sums);
          }
        in
        check_bool "equivalent" true
          (Equiv.is_equivalent
             (Equiv.packed_random ~trials:500 ~inputs:8 (adder false) (adder false)));
        match Equiv.packed_random ~trials:500 ~inputs:8 (adder false) (adder true) with
        | Equiv.Equivalent -> Alcotest.fail "expected a counterexample"
        | Equiv.Inequivalent cex ->
          check_int "cex arity" 8 (List.length cex);
          (* the counterexample must really distinguish the circuits *)
          let f = (adder false).Equiv.apply (module Hydra_core.Bit)
          and g = (adder true).Equiv.apply (module Hydra_core.Bit) in
          check_bool "cex is genuine" false (f cex = g cex));
    (* lazy enumeration *)
    tc "packed enumerate: lazy for 30 inputs, rejects 31" (fun () ->
        (match (Packed.enumerate ~inputs:30) () with
        | Seq.Nil -> Alcotest.fail "expected a pass"
        | Seq.Cons ((words, count), _) ->
          check_int "words" 30 (List.length words);
          check_int "count" Packed.lanes count);
        Alcotest.check_raises "31 inputs"
          (Invalid_argument "Packed.enumerate: too many inputs (max 30)")
          (fun () ->
            let (_ : (Packed.t list * int) Seq.t) =
              Packed.enumerate ~inputs:31
            in
            ()));
    (* lane plumbing *)
    tc "set_input_lane / output_lane round-trip" (fun () ->
        let a = G.input "a" in
        let nl = N.of_graph ~outputs:[ ("y", G.inv a) ] in
        let sim = Wide.create nl in
        Wide.set_input sim "a" 0;
        Slab.set_input_lane sim "a" 3 true;
        Slab.set_input_lane sim "a" 61 true;
        Wide.settle sim;
        check_bool "lane 3" false (Slab.output_lane sim "y" 3);
        check_bool "lane 61" false (Slab.output_lane sim "y" 61);
        check_bool "lane 0" true (Slab.output_lane sim "y" 0);
        check_int "word" (Packed.lane_mask land lnot ((1 lsl 3) lor (1 lsl 61)))
          (Wide.output sim "y"));
  ]
