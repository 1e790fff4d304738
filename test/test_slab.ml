(* Tests for the multi-word slab engine (Slab): every word of a slab must
   behave as an independent 62-lane wide engine — on random dff-heavy
   circuits, across the three inner-loop flavors (k = 1, generic k,
   4-unrolled k), with and without activity gating — and the slab-only
   surfaces (word-indexed I/O, global lanes, K-word forces, gated
   pokes) must hold their contracts. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Packed = Hydra_core.Packed
module Compiled = Hydra_engine.Compiled
module Wide = Hydra_engine.Compiled_wide
module Slab = Hydra_engine.Slab
module Kernel = Hydra_engine.Kernel
module Simd = Hydra_engine.Simd
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Equiv = Hydra_verify.Equiv

(* k values covering each settle flavor: 1 (wide-verbatim loops),
   2 and 3 (generic), 4 and 8 (4-unrolled) *)
let ks = [ 1; 2; 3; 4; 8 ]

let random_word st =
  Random.State.bits st
  lor (Random.State.bits st lsl 30)
  lor (Random.State.bits st lsl 60)
  land Hydra_core.Packed.lane_mask

(* Output list of the compiled netlist *)
let outputs_of (nl : N.t) = nl.N.outputs

(* Drive every word of a slab and one wide engine per word with the same
   per-word random streams; all outputs must agree word-for-word each
   cycle. *)
let words_independent ~k ~gating nodes =
  let nl = Test_wide.netlist_of nodes in
  let slab = Slab.create ~k ~gating nl in
  let wides = Array.init k (fun _ -> Wide.create nl) in
  let st = Random.State.make [| 0x51ab; k; Bool.to_int gating |] in
  let ok = ref true in
  for _cycle = 0 to 8 do
    List.iter
      (fun name ->
        for w = 0 to k - 1 do
          let v = random_word st in
          Slab.set_input_word slab name w v;
          Wide.set_input wides.(w) name v
        done)
      [ "a"; "b"; "c" ];
    Slab.settle slab;
    Array.iter Wide.settle wides;
    List.iter
      (fun (out, _) ->
        for w = 0 to k - 1 do
          if Slab.output_word slab out w <> Wide.output wides.(w) out then
            ok := false
        done)
      (outputs_of (Slab.netlist slab));
    Slab.tick slab;
    Array.iter Wide.tick wides
  done;
  !ok

(* Run [nodes] a few random cycles on an engine and on a twin driven
   identically, reset a random lane mask of one word on the first, and
   settle both plus a power-up engine: every component's masked lanes
   must match the power-up engine and its other lanes the twin.  Fusion
   is off so every component's word is written by settle. *)
let reset_lanes_law ~k ~gating nodes =
  let nl = Test_wide.netlist_of nodes in
  let mk () = Slab.create ~k ~gating ~fuse:false nl in
  let slab = mk () and twin = mk () and fresh = mk () in
  let st = Random.State.make [| 0x2e5e7; k; Bool.to_int gating; List.length nodes |] in
  for _cycle = 1 to 1 + Random.State.int st 6 do
    List.iter
      (fun name ->
        for w = 0 to k - 1 do
          let v = random_word st in
          Slab.set_input_word slab name w v;
          Slab.set_input_word twin name w v
        done)
      [ "a"; "b"; "c" ];
    Slab.step slab;
    Slab.step twin
  done;
  let word = Random.State.int st k and mask = random_word st in
  Slab.reset_lanes slab ~word mask;
  List.iter Slab.settle [ slab; twin; fresh ];
  let ok = ref true in
  for i = 0 to Array.length (Slab.netlist slab).N.components - 1 do
    for w = 0 to k - 1 do
      let m = if w = word then mask else 0 in
      let v = Slab.peek_word slab i w in
      if
        v land m <> Slab.peek_word fresh i w land m
        || v land lnot m <> Slab.peek_word twin i w land lnot m
      then ok := false
    done
  done;
  !ok

let suite =
  [
    qc ~count:25 "reset_lanes = power-up in masked lanes, rest untouched"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        List.for_all
          (fun k ->
            reset_lanes_law ~k ~gating:false nodes
            && reset_lanes_law ~k ~gating:true nodes)
          [ 1; 2 ]);
    qc ~count:25 "slab words = independent wide engines (all k, gating)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        List.for_all
          (fun k ->
            words_independent ~k ~gating:false nodes
            && words_independent ~k ~gating:true nodes)
          ks);
    qc ~count:25 "run_packed = wide run_packed (broadcast words)"
      (Test_wide.gen_case Test_wide.dff_heavy_ops)
      (fun (nodes, lane_rows) ->
        let nl = Test_wide.netlist_of nodes in
        let cycles = List.length (List.hd lane_rows) in
        let inputs =
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
        let expect = Slab.run_packed (Wide.create nl) ~inputs ~cycles in
        List.for_all
          (fun k ->
            Slab.run_packed (Slab.create ~k nl) ~inputs ~cycles = expect
            && Slab.run_packed (Slab.create ~k ~gating:true nl) ~inputs ~cycles
               = expect)
          [ 1; 3; 4 ]);
    tc "run_vectors = scalar settle, multi-pass" (fun () ->
        let module A = Hydra_circuits.Arith.Make (G) in
        let xs = List.init 5 (fun i -> G.input (Printf.sprintf "x%d" i)) in
        let ys = List.init 5 (fun i -> G.input (Printf.sprintf "y%d" i)) in
        let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
        let nl =
          N.extract ~inputs:(xs @ ys)
            ~outputs:
              (("cout", cout)
              :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
        in
        let st = Random.State.make [| 0xbeef |] in
        (* 300 vectors: > 2 passes at k = 2 (124 lanes/pass) *)
        let vectors =
          Array.init 300 (fun _ -> Array.init 10 (fun _ -> Random.State.bool st))
        in
        let scalar = Compiled.create nl in
        let in_names = List.map fst nl.N.inputs in
        let expect =
          Array.map
            (fun v ->
              Compiled.reset scalar;
              List.iteri
                (fun j name -> Compiled.set_input scalar name v.(j))
                in_names;
              Compiled.settle scalar;
              Array.of_list (List.map snd (Compiled.outputs scalar)))
            vectors
        in
        List.iter
          (fun (k, gating) ->
            let slab = Slab.create ~k ~gating nl in
            let got = Slab.run_vectors slab vectors in
            Array.iteri
              (fun i row ->
                if row <> expect.(i) then
                  Alcotest.failf "vector %d diverges (k=%d gating=%b)" i k
                    gating)
              got)
          [ (1, false); (2, false); (4, false); (2, true); (4, true) ]);
    tc "gated settle is incremental: quiescent cycles change nothing"
      (fun () ->
        let nl = Test_wide.cpu_netlist () in
        let program = Hydra_cpu.Asm.assemble Test_wide.sum_loop_src in
        let cycles = List.length program + 420 in
        let schedule = Test_wide.cpu_schedule program cycles in
        let gated = Slab.create ~k:2 ~gating:true nl in
        let plain = Slab.create ~k:2 nl in
        List.iteri
          (fun cyc row ->
            List.iter
              (fun (port, v) ->
                Slab.set_input_bool gated port v;
                Slab.set_input_bool plain port v)
              row;
            Slab.settle gated;
            Slab.settle plain;
            List.iter
              (fun (out, _) ->
                for w = 0 to 1 do
                  if
                    Slab.output_word gated out w <> Slab.output_word plain out w
                  then Alcotest.failf "cycle %d, output %s, word %d" cyc out w
                done)
              (outputs_of (Slab.netlist gated));
            Slab.tick gated;
            Slab.tick plain)
          schedule;
        (* both CPUs halted on every lane *)
        check_int "halted (gated)" Slab.lane_mask
          (Slab.output_word gated "halted" 0);
        check_int "halted word 1" Slab.lane_mask
          (Slab.output_word gated "halted" 1));
    tc "repeated gated settles are stable and cheap-path exact" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl =
          N.extract ~inputs:[ a; b ]
            ~outputs:[ ("q", G.dff (G.xor2 a (G.and2 a b))) ]
        in
        let s = Slab.create ~k:4 ~gating:true nl in
        Slab.set_input_word s "a" 2 0x3ff;
        Slab.set_input_word s "b" 2 0x0f0;
        Slab.settle s;
        let snap = Array.init 4 (fun w -> Slab.peek_word s 0 w) in
        (* nothing mutated: further settles must not disturb any word *)
        Slab.settle s;
        Slab.settle s;
        Array.iteri
          (fun w v -> check_int (Printf.sprintf "word %d" w) v (Slab.peek_word s 0 w))
          snap);
    tc "global lanes: set_input_lane / output_lane address word l/62"
      (fun () ->
        let a = G.input "a" in
        let nl = N.extract ~inputs:[ a ] ~outputs:[ ("y", G.inv a) ] in
        let s = Slab.create ~k:3 nl in
        let lane = (2 * Slab.lanes_per_word) + 17 in
        Slab.set_input_lane s "a" lane true;
        Slab.settle s;
        check_bool "set lane reads back inverted" false
          (Slab.output_lane s "y" lane);
        check_bool "neighbour lane untouched" true
          (Slab.output_lane s "y" (lane + 1));
        check_int "word 2 carries bit 17" (1 lsl 17) (Slab.peek_word s 0 2);
        check_int "word 0 unchanged" 0 (Slab.peek_word s 0 0);
        Alcotest.check_raises "lane range"
          (Invalid_argument
             "Slab.set_input_lane: lane 186 out of range (engine has 186 lanes)")
          (fun () -> Slab.set_input_lane s "a" (3 * Slab.lanes_per_word) true));
    tc "gated pokes mark readers: poke -> settle recomputes" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl =
          N.extract ~inputs:[ a; b ] ~outputs:[ ("y", G.xor2 a b) ]
        in
        let s = Slab.create ~k:2 ~gating:true nl in
        let nl' = Slab.netlist s in
        let ai = List.assoc "a" nl'.N.inputs in
        Slab.settle s;
        check_int "all zero" 0 (Slab.output_word s "y" 1);
        Slab.poke_word s ai 1 0x55;
        Slab.settle s;
        check_int "poked word recomputed" 0x55 (Slab.output_word s "y" 1);
        check_int "other word untouched" 0 (Slab.output_word s "y" 0));
    tc "set_forces: rejections and descriptive range error" (fun () ->
        let nl =
          let x = G.input "x" in
          N.extract ~inputs:[ x ]
            ~outputs:[ ("y", G.or2 (G.and2 x (G.inv x)) x) ]
        in
        let zero_force site =
          {
            Slab.f_site = site;
            force0 = [| 0; 0 |];
            force1 = [| 0; 0 |];
            flip = [| 0; 0 |];
          }
        in
        let fused = Slab.create ~k:2 nl in
        Alcotest.check_raises "fused"
          (Invalid_argument
             "Slab.set_forces: requires an engine built with ~fuse:false")
          (fun () -> Slab.set_forces fused [| zero_force 0 |]);
        (* a gated engine accepts forces since the cluster-gating PR *)
        let gated =
          Slab.create ~k:2 ~gating:true ~fuse:false ~relayout:false nl
        in
        Slab.set_forces gated [| zero_force 0 |];
        Slab.clear_forces gated;
        let plain = Slab.create ~k:3 ~fuse:false ~relayout:false nl in
        Alcotest.check_raises "mask arity"
          (Invalid_argument "Slab.set_forces: mask arrays must have k = 3 words")
          (fun () -> Slab.set_forces plain [| zero_force 0 |]);
        let n = N.size nl in
        Alcotest.check_raises "site range"
          (Invalid_argument
             (Printf.sprintf
                "Slab.set_forces: force site %d out of range (netlist has %d \
                 components)"
                n n))
          (fun () ->
            Slab.set_forces plain
              [|
                {
                  Slab.f_site = n;
                  force0 = [| 0; 0; 0 |];
                  force1 = [| 0; 0; 0 |];
                  flip = [| 0; 0; 0 |];
                };
              |]));
    qc ~count:20 "forces are word-selective and match the wide engine"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        let mk_wide () = Wide.create ~relayout:false ~fuse:false nl in
        let slab = Slab.create ~k:2 ~relayout:false ~fuse:false nl in
        let wide_plain = mk_wide () and wide_forced = mk_wide () in
        (* flip a mid-netlist site in word 1 only *)
        let site = N.size nl / 2 in
        let mask = 0x2a5 in
        Slab.set_forces slab
          [|
            {
              Slab.f_site = site;
              force0 = [| 0; 0 |];
              force1 = [| 0; 0 |];
              flip = [| 0; mask |];
            };
          |];
        Slab.set_forces wide_forced
          [| { Slab.f_site = site; force0 = [| 0 |]; force1 = [| 0 |]; flip = [| mask |] } |];
        let st = Random.State.make [| 0xf0 |] in
        let ok = ref true in
        for _ = 0 to 5 do
          List.iter
            (fun name ->
              let v = random_word st in
              Slab.set_input_word slab name 0 v;
              Slab.set_input_word slab name 1 v;
              Wide.set_input wide_plain name v;
              Wide.set_input wide_forced name v)
            [ "a"; "b"; "c" ];
          Slab.settle slab;
          Wide.settle wide_plain;
          Wide.settle wide_forced;
          List.iter
            (fun (out, _) ->
              if
                Slab.output_word slab out 0 <> Wide.output wide_plain out
                || Slab.output_word slab out 1 <> Wide.output wide_forced out
              then ok := false)
            (outputs_of (Slab.netlist slab));
          Slab.tick slab;
          Wide.tick wide_plain;
          Wide.tick wide_forced
        done;
        !ok);
    qc ~count:15
      "forces compose with gating: install, mutate in place, clear — all heal"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        (* tiny blocks so the force sites and their consumers span several
           blocks even on a small random netlist *)
        let tuning = { Kernel.default_tuning with Kernel.block_gates = 2 } in
        let mk gating =
          Slab.create ~k:2 ~gating ~tuning ~fuse:false ~relayout:false nl
        in
        let gated = mk true and plain = mk false in
        let force () =
          {
            Slab.f_site = N.size nl / 2;
            force0 = [| 0; 0 |];
            force1 = [| 0; 0 |];
            flip = [| 0; 0x155 |];
          }
        in
        let gf = force () and pf = force () in
        let st = Random.State.make [| 0xf06 |] in
        let ok = ref true in
        let phase ~toggling cycles =
          for _ = 1 to cycles do
            List.iter
              (fun name ->
                for w = 0 to 1 do
                  let v = if toggling then random_word st else 0 in
                  Slab.set_input_word gated name w v;
                  Slab.set_input_word plain name w v
                done)
              [ "a"; "b"; "c" ];
            Slab.settle gated;
            Slab.settle plain;
            List.iter
              (fun (out, _) ->
                for w = 0 to 1 do
                  if Slab.output_word gated out w <> Slab.output_word plain out w
                  then ok := false
                done)
              (outputs_of (Slab.netlist gated));
            Slab.tick gated;
            Slab.tick plain
          done
        in
        phase ~toggling:true 10;
        Slab.set_forces gated [| gf |];
        Slab.set_forces plain [| pf |];
        phase ~toggling:true 10;
        (* quiescent inputs with a live force: gating must keep the
           forced cone correct while skipping the rest *)
        phase ~toggling:false 12;
        (* in-place mask re-seed (the Campaign intermittent-fault path):
           no set_forces call, detection alone must propagate it *)
        gf.Slab.flip.(0) <- 0x2a;
        pf.Slab.flip.(0) <- 0x2a;
        phase ~toggling:false 12;
        (* cleared forces must heal even while inputs are held *)
        Slab.clear_forces gated;
        Slab.clear_forces plain;
        phase ~toggling:false 12;
        phase ~toggling:true 8;
        !ok);
    qc ~count:15 "tiny rank blocks are value-transparent (tuning sweep)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        List.for_all
          (fun tuning ->
            Equiv.seq_equivalent
              (Equiv.slab_vs_wide ~passes:1 ~cycles:8 ~k:2 ~tuning nl)
            && Equiv.seq_equivalent
                 (Equiv.slab_vs_wide ~passes:1 ~cycles:8 ~k:2 ~gating:true
                    ~tuning nl))
          [
            { Kernel.default_tuning with Kernel.block_gates = 1 };
            { Kernel.default_tuning with Kernel.block_gates = 3 };
            { Kernel.default_tuning with Kernel.block_words = 16 };
            {
              Kernel.block_words = 64;
              block_gates = 0;
              hot_after = 1;
              probe_period = 2;
            };
          ]);
    qc ~count:15 "simd kernels = pure OCaml kernels (all k, gating)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        List.for_all
          (fun k ->
            Equiv.seq_equivalent
              (Equiv.slab_vs_wide ~passes:1 ~cycles:8 ~k ~simd:true nl)
            && Equiv.seq_equivalent
                 (Equiv.slab_vs_wide ~passes:1 ~cycles:8 ~k ~simd:true
                    ~gating:true nl))
          (* 1 and 3: scalar-tail-only at any vector width; 8: full
             vector bodies *)
          [ 1; 3; 8 ]);
    tc "Kernel tuning specs: parse, merge, print, reject" (fun () ->
        let t = Kernel.tuning_of_spec "block-words=512,hot-after=2" in
        check_int "block words" 512 t.Kernel.block_words;
        check_int "hot after" 2 t.Kernel.hot_after;
        check_int "probe period inherited"
          Kernel.default_tuning.Kernel.probe_period t.Kernel.probe_period;
        let t2 = Kernel.tuning_of_spec ~base:t "block_gates=7" in
        check_int "underscores normalize" 7 t2.Kernel.block_gates;
        check_int "base carried through" 512 t2.Kernel.block_words;
        check_bool "spec roundtrip" true
          (Kernel.tuning_of_spec (Kernel.tuning_to_spec t2) = t2);
        check_int "derived gates per block honors override" 7
          (Kernel.gates_per_block ~k:4 t2);
        check_int "derived gates per block from block words" 42
          (Kernel.gates_per_block ~k:4
             { t2 with Kernel.block_gates = 0; block_words = 512 });
        Alcotest.check_raises "unknown key"
          (Invalid_argument
             "Kernel.tuning_of_spec: unknown key \"block\" (expected \
              block-words, block-gates, hot-after or probe-period)")
          (fun () -> ignore (Kernel.tuning_of_spec "block=3"));
        Alcotest.check_raises "non-integer"
          (Invalid_argument
             "Kernel.tuning_of_spec: value of hot-after must be an integer, \
              got \"soon\"")
          (fun () -> ignore (Kernel.tuning_of_spec "hot-after=soon"));
        Alcotest.check_raises "missing ="
          (Invalid_argument
             "Kernel.tuning_of_spec: expected key=int, got \"3072\"")
          (fun () -> ignore (Kernel.tuning_of_spec "3072"));
        Alcotest.check_raises "range check"
          (Invalid_argument "Kernel: tuning.block_words must be >= 1")
          (fun () -> ignore (Kernel.tuning_of_spec "block-words=0"));
        (* the engine handle spells the whole flavor out *)
        let (module E) =
          Slab.engine ~gating:true ~simd:true
            ~tuning:{ Kernel.default_tuning with Kernel.block_gates = 9 }
            4
        in
        check_string "engine name"
          "slab(k=4,gated,simd,block-words=3072,block-gates=9,hot-after=4,probe-period=128)"
          E.name;
        let (module D) = Slab.engine ~tuning:Kernel.default_tuning 2 in
        check_string "default tuning elided" "slab(k=2)" D.name);
    tc "word index range errors are descriptive" (fun () ->
        let a = G.input "a" in
        let nl = N.extract ~inputs:[ a ] ~outputs:[ ("y", G.inv a) ] in
        let s = Slab.create ~k:2 nl in
        Alcotest.check_raises "set_input_word"
          (Invalid_argument
             "Slab.set_input_word: word index 2 out of range (engine has 2 \
              words)")
          (fun () -> Slab.set_input_word s "a" 2 0);
        Alcotest.check_raises "peek_word"
          (Invalid_argument
             "Slab.peek_word: word index -1 out of range (engine has 2 words)")
          (fun () -> ignore (Slab.peek_word s 0 (-1)));
        Alcotest.check_raises "reset_lanes"
          (Invalid_argument
             "Slab.reset_lanes: word index 2 out of range (engine has 2 words)")
          (fun () -> Slab.reset_lanes s ~word:2 1);
        Alcotest.check_raises "reset_lanes negative"
          (Invalid_argument
             "Slab.reset_lanes: word index -1 out of range (engine has 2 words)")
          (fun () -> Slab.reset_lanes s ~word:(-1) 1);
        let w = Wide.create nl in
        Alcotest.check_raises "wide engine: one word"
          (Invalid_argument
             "Slab.peek_word: word index 1 out of range (engine has 1 words)")
          (fun () -> ignore (Slab.peek_word w 0 1)));
    (* ---- the engine-polymorphic entry points, slab-instantiated ---- *)
    tc "Slab_sharded: run_batches / run_vectors / step_batches match wide"
      (fun () ->
        let nl =
          Test_wide.netlist_of
            [ (Test_wide.Rand, 0, 1); (Test_wide.Rdff, 3, 3);
              (Test_wide.Rxor, 2, 4); (Test_wide.Rdff, 5, 5);
              (Test_wide.Ror, 4, 6) ]
        in
        let st = Random.State.make [| 0x51ab5 |] in
        let batches =
          Array.init 7 (fun _ ->
              List.map
                (fun name ->
                  (name, List.init 9 (fun _ -> random_word st)))
                [ "a"; "b"; "c" ])
        in
        let wsh = Sharded.create ~domains:2 nl in
        let ssh = Sharded.of_base ~domains:2 (Slab.create ~k:3 nl) in
        check_int "lanes" (3 * Wide.lanes) (Sharded.lanes ssh);
        let wb = Sharded.run_batches wsh ~batches ~cycles:9 in
        let sb = Sharded.run_batches ssh ~batches ~cycles:9 in
        check_bool "run_batches agree" true (wb = sb);
        let vectors =
          Array.init 200 (fun _ -> Array.init 3 (fun _ -> Random.State.bool st))
        in
        check_bool "run_vectors agree" true
          (Sharded.run_vectors wsh vectors = Sharded.run_vectors ssh vectors);
        (* step_batches pokes/peeks word 0, so the checksum is engine
           independent *)
        check_int "step_batches checksum"
          (Sharded.step_batches wsh ~batches:12 ~cycles:20)
          (Sharded.step_batches ssh ~batches:12 ~cycles:20);
        Sharded.shutdown wsh;
        Sharded.shutdown ssh);
    tc "testbench run_batched ?engine slab = default engine" (fun () ->
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
            if k = 70 then
              [ Testbench.Expect_bit { cycle = 0; port = "q"; value = true } ]
            else []
          in
          (stimuli, expectations)
        in
        (* 300 cases: several chunks at 62 lanes, two at 62*4 *)
        let cases = Array.init 300 case in
        let reference = Testbench.run_batched ~cycles:8 ~cases nl in
        List.iter
          (fun (k, gating) ->
            let got =
              Testbench.run_batched
                ~engine:(Slab.engine ~gating k)
                ~cycles:8 ~cases nl
            in
            Array.iteri
              (fun i r ->
                if r <> reference.(i) then
                  Alcotest.failf "case %d differs (k=%d gating=%b)" i k gating)
              got)
          [ (1, false); (4, false); (3, true) ];
        check_bool "case 70 failed" false (Testbench.passed reference.(70)));
    qc ~count:10 "Equiv.slab_vs_wide holds on random netlists (k, gating)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        List.for_all
          (fun k ->
            Equiv.seq_equivalent
              (Equiv.slab_vs_wide ~passes:2 ~cycles:10 ~k nl)
            && Equiv.seq_equivalent
                 (Equiv.slab_vs_wide ~passes:2 ~cycles:10 ~k ~gating:true nl))
          [ 1; 4; 8 ]);
    tc "engine_random_netlists finds a planted mismatch on every word"
      (fun () ->
        let mk invert =
          let a = G.input "a" and b = G.input "b" in
          let q = G.dff (G.xor2 a (G.and2 b (G.dff a))) in
          N.extract ~inputs:[ a; b ]
            ~outputs:[ ("q", (if invert then G.inv q else q)) ]
        in
        (match
           Equiv.engine_random_netlists ~passes:1 ~cycles:4
             (Slab.engine 4) Hydra_engine.Engine_intf.oracle (mk false) (mk true)
         with
        | Equiv.Seq_mismatch { output = "q"; cycle = 0; inputs } ->
          check_int "two stimulus streams" 2 (List.length inputs)
        | Equiv.Seq_mismatch _ -> Alcotest.fail "unexpected mismatch shape"
        | Equiv.Seq_equivalent -> Alcotest.fail "mismatch not found");
        (* and the symmetric orientation, oracle first *)
        check_bool "oracle vs slab" false
          (Equiv.seq_equivalent
             (Equiv.engine_random_netlists ~passes:1 ~cycles:4
                Hydra_engine.Engine_intf.oracle (Slab.engine ~gating:true 3)
                (mk false) (mk true))));
    tc "adaptive gating: hot, quiescent and re-activated phases match ungated"
      (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let d1 = G.dff (G.xor2 a b) in
        let d2 = G.dff (G.or2 d1 (G.and2 a (G.inv b))) in
        let nl =
          N.of_graph
            ~outputs:[ ("q", G.xor2 d1 d2); ("r", G.and2 d1 (G.inv d2)) ]
        in
        let k = 4 in
        let gated = Slab.create ~k ~gating:true nl in
        let plain = Slab.create ~k nl in
        let st = Random.State.make [| 0x407 |] in
        (* 90 toggle cycles push ranks hot and across the detect probe,
           40 held cycles drain to a full skip, 90 more re-dirty the hot
           ranks; every output word must match the ungated slab at every
           cycle of every phase *)
        let phase cycles toggling =
          for _ = 1 to cycles do
            List.iter
              (fun name ->
                for w = 0 to k - 1 do
                  let v = if toggling then random_word st else 0 in
                  Slab.set_input_word gated name w v;
                  Slab.set_input_word plain name w v
                done)
              [ "a"; "b" ];
            Slab.settle gated;
            Slab.settle plain;
            List.iter
              (fun (out, _) ->
                for w = 0 to k - 1 do
                  check_int
                    (Printf.sprintf "%s word %d cycle %d" out w
                       (Slab.cycle plain))
                    (Slab.output_word plain out w)
                    (Slab.output_word gated out w)
                done)
              (outputs_of nl);
            Slab.tick gated;
            Slab.tick plain
          done
        in
        phase 90 true;
        phase 40 false;
        phase 90 true);
    tc "dense mode: a fresh or reset gated engine with held inputs stays gated"
      (fun () ->
        let s = Slab.create ~k:4 ~gating:true ~fuse:false (Test_wide.cpu_netlist ()) in
        let owner = Kernel.comp_block (Slab.program s) in
        let comps = (Slab.netlist s).N.components in
        let is_gate = function
          | N.Invc | N.And2c | N.Or2c | N.Xor2c -> true
          | _ -> false
        in
        let gate =
          Option.get
            (List.find_opt
               (fun i -> is_gate comps.(i) && owner.(i) >= 0)
               (List.init (Array.length comps) Fun.id))
        in
        let held what =
          for cyc = 1 to 40 do
            Slab.settle s;
            check_bool (Printf.sprintf "%s: dense after settle %d" what cyc) false
              (Slab.dense_next s);
            Slab.tick s
          done;
          (* a skipping settle leaves a poked gate word alone (only its
             readers re-run); a dense sweep would recompute it *)
          Slab.settle s;
          let v = Slab.peek_word s gate 1 lxor 1 in
          Slab.poke_word s gate 1 v;
          Slab.settle s;
          check_int (what ^ ": the poked gate's block was skipped") v
            (Slab.peek_word s gate 1)
        in
        held "fresh";
        Slab.reset s;
        held "reset");
    tc "dense mode: busy inputs go dense, quiet ones are gated again in time"
      (fun () ->
        let module Wl = Hydra_circuits.Wallace.Make (G) in
        let word n = List.init 8 (fun i -> G.input (Printf.sprintf "%s%d" n i)) in
        let nl =
          N.of_graph
            ~outputs:
              (List.mapi
                 (fun i p -> (Printf.sprintf "p%d" i, p))
                 (Wl.multw (word "x") (word "y")))
        in
        let probe_period = 6 and k = 4 in
        let tuning =
          { Kernel.default_tuning with Kernel.block_gates = 16; probe_period }
        in
        let gated = Slab.create ~k ~gating:true ~tuning nl in
        let plain = Slab.create ~k nl in
        let st = Random.State.make [| 0xde75e |] in
        let cycle busy =
          if busy then
            List.iter
              (fun (name, _) ->
                for w = 0 to k - 1 do
                  let v = random_word st in
                  Slab.set_input_word gated name w v;
                  Slab.set_input_word plain name w v
                done)
              nl.N.inputs;
          Slab.settle gated;
          Slab.settle plain;
          List.iter
            (fun (out, _) ->
              for w = 0 to k - 1 do
                check_int out (Slab.output_word plain out w)
                  (Slab.output_word gated out w)
              done)
            (outputs_of nl);
          Slab.tick gated;
          Slab.tick plain
        in
        let saw_dense = ref false in
        for _ = 1 to 20 do
          cycle true;
          if Slab.dense_next gated then saw_dense := true
        done;
        check_bool "busy inputs go dense" true !saw_dense;
        for i = 1 to 3 * probe_period do
          cycle false;
          if i > probe_period then
            check_bool
              (Printf.sprintf "gated again by quiet settle %d" i)
              false (Slab.dense_next gated)
        done);
  ]
