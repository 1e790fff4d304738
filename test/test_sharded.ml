(* Tests for the domain-sharded engine (Sharded) and the code that
   was rewired onto it: every sharded result must be bit-identical to the
   sequential wide engine (and hence, via Test_wide, to the scalar and
   stream semantics), regardless of the domain count; and the rank-major
   re-layout / kernel-fusion passes the engine runs by default must be
   pure re-encodings. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Layout = Hydra_netlist.Layout
module Packed = Hydra_core.Packed
module Compiled = Hydra_scalar.Compiled
module Wide = Hydra_engine.Compiled_wide
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Equiv = Hydra_verify.Equiv
module Driver = Hydra_cpu.Driver

(* Random packed lane-batches for a Test_wide.netlist_of circuit (inputs
   a/b/c): [batch b] is a [(name, word list)] stimulus of [cycles]
   packed words per input. *)
let gen_batches ~batches ~cycles st =
  Array.init batches (fun _ ->
      List.map
        (fun name ->
          ( name,
            List.init cycles (fun _ ->
                Random.State.bits st
                lor (Random.State.bits st lsl 30)
                lor (Random.State.bits st lsl 60)
                land Hydra_core.Packed.lane_mask) ))
        [ "a"; "b"; "c" ])

let suite =
  [
    (* the heart of the PR: sharded batches = sequential wide runs *)
    qc ~count:20 "run_batches = sequential run_packed, any domain count"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        let st = Random.State.make [| 0x5aded; List.length nodes |] in
        let batches = gen_batches ~batches:7 ~cycles:9 st in
        let wide = Wide.create nl in
        let expect =
          Array.map
            (fun inputs ->
              Wide.reset wide;
              Hydra_engine.Slab.run_packed wide ~inputs ~cycles:9)
            batches
        in
        List.for_all
          (fun domains ->
            let sh = Sharded.create ~domains nl in
            let got = Sharded.run_batches sh ~batches ~cycles:9 in
            Sharded.shutdown sh;
            got = expect)
          [ 1; 3 ]);
    tc "run_vectors = scalar settle across domains" (fun () ->
        let module A = Hydra_circuits.Arith.Make (G) in
        let xs = List.init 6 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 6 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
        let nl =
          N.extract ~inputs:(xs @ ys)
            ~outputs:
              (("cout", cout)
              :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
        in
        let st = Random.State.make [| 77 |] in
        (* 200 vectors: more than 3 wide passes, so jobs really shard *)
        let vectors =
          Array.init 200 (fun _ -> Array.init 12 (fun _ -> Random.State.bool st))
        in
        let sh = Sharded.create ~domains:3 nl in
        let got = Sharded.run_vectors sh vectors in
        Sharded.shutdown sh;
        let scalar = Compiled.create nl in
        let in_names = List.map fst nl.N.inputs in
        Array.iteri
          (fun k v ->
            Compiled.reset scalar;
            List.iteri
              (fun j name -> Compiled.set_input scalar name v.(j))
              in_names;
            Compiled.settle scalar;
            let expect =
              Array.of_list (List.map snd (Compiled.outputs scalar))
            in
            if got.(k) <> expect then Alcotest.failf "vector %d diverges" k)
          vectors);
    tc "dispatch covers every job once, on member replicas" (fun () ->
        List.iter
          (fun domains ->
            let a = G.input "a" in
            let nl = N.of_graph ~outputs:[ ("y", G.inv a) ] in
            let sh = Sharded.create ~domains nl in
            let n = 500 in
            let hits = Array.make n 0 in
            let bad_replica = Atomic.make false in
            Sharded.dispatch sh n (fun sim job ->
                if
                  not
                    (List.exists
                       (fun m -> Sharded.replica sh m == sim)
                       (List.init (Sharded.domains sh) Fun.id))
                then Atomic.set bad_replica true;
                (* jobs are distributed disjointly, so no lock is needed *)
                hits.(job) <- hits.(job) + 1);
            Sharded.shutdown sh;
            check_bool "every job on a member's replica" false
              (Atomic.get bad_replica);
            check_bool
              (Printf.sprintf "all jobs once (%d domains)" domains)
              true
              (Array.for_all (fun h -> h = 1) hits))
          [ 1; 2; 4 ]);
    tc "step_batches checksum is domain-count independent" (fun () ->
        let nl =
          Test_wide.netlist_of
            [ (Test_wide.Rand, 0, 1); (Test_wide.Rdff, 3, 3);
              (Test_wide.Rxor, 2, 4); (Test_wide.Rdff, 5, 5);
              (Test_wide.Ror, 4, 6) ]
        in
        let run domains =
          let sh = Sharded.create ~domains nl in
          let sum = Sharded.step_batches sh ~batches:12 ~cycles:20 in
          Sharded.shutdown sh;
          sum
        in
        let reference = run 1 in
        check_int "2 domains" reference (run 2);
        check_int "4 domains" reference (run 4));
    tc "testbench run_batched ~scheduler = sequential" (fun () ->
        let x = G.input "x" and en = G.input "en" in
        let q = G.dff (G.xor2 x (G.and2 en (G.input "y"))) in
        let nl =
          N.extract ~inputs:[ x; en; G.input "y" ] ~outputs:[ ("q", q) ]
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
            if k = 5 then
              [ Testbench.Expect_bit { cycle = 0; port = "q"; value = true } ]
            else []
          in
          (stimuli, expectations)
        in
        let cases = Array.init 300 case in
        let sequential = Testbench.run_batched ~cycles:8 ~cases nl in
        let sch = Hydra_engine.Scheduler.create ~domains:3 () in
        let shared = Testbench.run_batched ~scheduler:sch ~cycles:8 ~cases nl in
        Hydra_engine.Scheduler.shutdown sch;
        Array.iteri
          (fun k r ->
            if r <> sequential.(k) then Alcotest.failf "case %d differs" k)
          shared;
        check_bool "case 5 failed" false (Testbench.passed shared.(5)));
    (* parallel falsification must stay deterministic: same verdict and
       same counterexample as the 1-domain run, on both an equivalent and
       an inequivalent pair *)
    tc "wide_random_netlists ~domains is deterministic" (fun () ->
        let mk invert =
          let a = G.input "a" and b = G.input "b" in
          let q = G.dff (G.xor2 a (G.and2 b (G.dff a))) in
          N.extract ~inputs:[ a; b ]
            ~outputs:[ ("q", (if invert then G.inv q else q)) ]
        in
        let equivalent =
          Equiv.wide_random_netlists ~passes:6 ~cycles:10 ~domains:3 (mk false)
            (mk false)
        in
        check_bool "equivalent pair" true (Equiv.seq_equivalent equivalent);
        let r1 =
          Equiv.wide_random_netlists ~passes:6 ~cycles:10 ~domains:1 (mk false)
            (mk true)
        and r3 =
          Equiv.wide_random_netlists ~passes:6 ~cycles:10 ~domains:3 (mk false)
            (mk true)
        in
        (match r1 with
        | Equiv.Seq_equivalent -> Alcotest.fail "expected a mismatch"
        | Equiv.Seq_mismatch _ -> ());
        check_bool "same counterexample at 1 and 3 domains" true (r1 = r3));
    tc "run_many matches run_structural per program" (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let program = Asm.assemble Test_wide.sum_loop_src in
        let n_addr = List.length program - 2 in
        let programs =
          Array.init 5 (fun k ->
              List.mapi
                (fun i w -> if i = n_addr then 2 + (3 * k) else w)
                program)
        in
        let results = Driver.run_many ~max_cycles:1000 ~domains:2 programs in
        Array.iteri
          (fun k r ->
            let scalar =
              Driver.run_structural ~max_cycles:1000 programs.(k)
            in
            check_bool (Printf.sprintf "program %d halted" k) scalar.Driver.halted
              r.Driver.halted;
            check_int
              (Printf.sprintf "program %d cycles" k)
              scalar.Driver.cycles r.Driver.cycles)
          results);
    tc "run_many reports non-halting programs" (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let spin = Asm.assemble "loop: jump loop[R0]\n" in
        let results = Driver.run_many ~max_cycles:40 [| spin |] in
        check_bool "not halted" false results.(0).Driver.halted);
    tc "run_many: a non-halting program's cycles ignore its batch" (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let spin = Asm.assemble "loop: jump loop[R0]\n" in
        (* a 24-word neighbour: the sum loop padded with data words *)
        let long =
          let p = Asm.assemble Test_wide.sum_loop_src in
          p @ List.init (24 - List.length p) (fun _ -> 0)
        in
        let results = Driver.run_many ~max_cycles:40 [| spin; long |] in
        List.iteri
          (fun k p ->
            let alone = Driver.run_structural ~max_cycles:40 ~collect_trace:false p in
            check_bool (Printf.sprintf "program %d halted" k) alone.Driver.halted
              results.(k).Driver.halted;
            check_int (Printf.sprintf "program %d cycles" k) alone.Driver.cycles
              results.(k).Driver.cycles)
          [ spin; long ];
        check_bool "spin not halted" false results.(0).Driver.halted;
        check_int "spin cycles = max_cycles - 1" 39 results.(0).Driver.cycles);
    tc "run_many refills lanes: same results at any domain count and order"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let sum = Asm.assemble Test_wide.sum_loop_src in
        let n_addr = List.length sum - 2 in
        let sum_to n = List.mapi (fun i w -> if i = n_addr then n else w) sum in
        let straight k =
          Asm.assemble
            (String.concat ""
               (List.init
                  (1 + (k mod 6))
                  (fun i ->
                    Printf.sprintf "ldval R%d,%d[R0]\nadd R%d,R%d,R%d\n" (1 + i)
                      (k * 7 + i) (2 + i) (1 + i) (1 + i))
               @ [ "halt\n" ]))
        in
        let spin = Asm.assemble "loop: jump loop[R0]\n" in
        (* 160 programs of mixed lengths and run times: straight-line code,
           sum 1..n for n in 1..31, and one spin that runs out of cycles *)
        let programs =
          Array.init 160 (fun k ->
              if k = 77 then spin
              else if k mod 2 = 0 then straight k
              else sum_to (1 + (k / 2 mod 31)))
        in
        let run ?domains progs = Driver.run_many ~max_cycles:500 ?domains progs in
        let expect = run ~domains:1 programs in
        List.iter
          (fun domains ->
            check_bool
              (Printf.sprintf "%d domains = 1 domain" domains)
              true
              (run ~domains programs = expect))
          [ 2; 3 ];
        let st = Random.State.make [| 0x9e7 |] in
        let perm = Array.init 160 Fun.id in
        for i = 159 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let permuted = run ~domains:2 (Array.map (fun i -> programs.(i)) perm) in
        Array.iteri
          (fun j i ->
            check_bool (Printf.sprintf "permuted program %d" i) true
              (permuted.(j) = expect.(i)))
          perm;
        check_bool "spin did not halt" false expect.(77).Driver.halted;
        List.iter
          (fun k ->
            let scalar =
              Driver.run_structural ~max_cycles:500 ~collect_trace:false programs.(k)
            in
            check_bool (Printf.sprintf "program %d halted" k) scalar.Driver.halted
              expect.(k).Driver.halted;
            check_int (Printf.sprintf "program %d cycles" k) scalar.Driver.cycles
              expect.(k).Driver.cycles)
          [ 0; 5; 61; 77; 124; 159 ]);
    tc "run_many rejects a multi-word sharded engine" (fun () ->
        let sh =
          Sharded.of_base ~domains:1
            (Hydra_engine.Slab.create ~k:2 (Driver.system_netlist ~mem_bits:6 ()))
        in
        Fun.protect
          ~finally:(fun () -> Sharded.shutdown sh)
          (fun () ->
            Alcotest.check_raises "k=2"
              (Invalid_argument
                 "Driver.run_many: ?sharded engine has k=2 words per signal; \
                  programs are packed 62 to a pass and need k=1")
              (fun () -> ignore (Driver.run_many ~sharded:sh [| [ 0 ] |]))));
    (* the re-layout is a pure index permutation *)
    qc ~count:30 "rank_major_permutation is a valid permutation"
      (Test_wide.gen_nodes Test_wide.all_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        let nl', new_of_old = Layout.rank_major_permutation nl in
        let n = Array.length nl.N.components in
        let seen = Array.make n false in
        Array.iter (fun i -> seen.(i) <- true) new_of_old;
        Array.length nl'.N.components = n
        && Array.length new_of_old = n
        && Array.for_all Fun.id seen
        (* every component keeps its identity under the permutation *)
        && Array.for_all2
             (fun c i -> nl'.N.components.(i) = c)
             nl.N.components
             (Array.map Fun.id new_of_old));
    (* the default engine (relayout + fusion) = the plain one *)
    qc ~count:25 "fuse/relayout ablation: all variants agree"
      (Test_wide.gen_case Test_wide.dff_heavy_ops)
      (fun (nodes, lane_rows) ->
        let nl = Test_wide.netlist_of nodes in
        let cycles = List.length (List.hd lane_rows) in
        let packed_inputs =
          List.mapi
            (fun j name ->
              ( name,
                List.init cycles (fun t ->
                    Packed.pack
                      (List.map
                         (fun rows -> List.nth (List.nth rows t) j)
                         lane_rows)) ))
            [ "a"; "b"; "c" ]
        in
        let run sim = Hydra_engine.Slab.run_packed sim ~inputs:packed_inputs ~cycles in
        let plain = run (slab_of ~k:1 ~relayout:false ~fuse:false nl) in
        run (Wide.create nl) = plain
        && run (slab_of ~k:1 ~relayout:true ~fuse:false nl) = plain
        && run (slab_of ~k:1 ~relayout:false ~fuse:true nl) = plain);
  ]
