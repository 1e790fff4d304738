(* Tests for the multi-word slab engine (Slab): every word of a slab must
   behave as an independent 62-lane wide engine — on random dff-heavy
   circuits, at every shape of the C kernel's word loop (the
   k = 1 specialisation, tail-only, vector bodies plus tail, vector
   bodies only) — and the slab-only surfaces (word-indexed I/O, global
   lanes, K-word forces, descriptor range checks) must hold their
   contracts. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Packed = Hydra_core.Packed
module Compiled = Hydra_scalar.Compiled
module Wide = Hydra_engine.Compiled_wide
module Slab = Hydra_engine.Slab
module Kernel = Hydra_engine.Kernel
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Equiv = Hydra_verify.Equiv
module Sim = Hydra_analyze.Sim

(* k values covering each shape of the C kernel's word loop under AVX2:
   1 (the k = 1 specialisation), 2 and 3 (tail only), 4 and 8 (vector
   bodies only) *)
let ks = [ 1; 2; 3; 4; 8 ]

let random_word st =
  Random.State.bits st
  lor (Random.State.bits st lsl 30)
  lor (Random.State.bits st lsl 60)
  land Hydra_core.Packed.lane_mask

(* Output list of the compiled netlist *)
let outputs_of (nl : N.t) = nl.N.outputs

(* An n-bit ripple-carry adder, outputs cout and s0.. *)
let ripple_netlist n =
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:(("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

(* A circuit whose fused compile emits every tuple kind: andor, orand
   and xor3 outers, a plain inv, and, or and xor, outports, and a dff. *)
let every_kind_netlist () =
  let a = G.input "a" and b = G.input "b" and c = G.input "c" in
  let d = G.input "d" and e = G.input "e" in
  let andor = G.or2 (G.and2 a b) (G.and2 c d) in
  N.of_graph
    ~outputs:
      [
        ("andor", andor);
        ("orand", G.or2 (G.and2 a e) c);
        ("xor3", G.xor2 (G.xor2 a b) c);
        ("inv", G.inv a);
        ("and", G.and2 b c);
        ("or", G.or2 a d);
        ("xor", G.xor2 d e);
        ("q", G.dff andor);
      ]

(* The fused re-layout compile against the fused compile in the
   caller's indices: the re-layout's levels are a fresh levelization of
   its netlist, and its fusion plan is the other's carried through the
   permutation. *)
let relayout_law nl =
  let laid = Kernel.compile ~relayout:true nl in
  let plain = Kernel.compile ~relayout:false nl in
  let _, perm = Hydra_netlist.Layout.rank_major_permutation nl in
  let moved = Array.make (Array.length perm) 0 in
  Array.iteri
    (fun i o -> moved.(perm.(i)) <- (if o < 0 then o else perm.(o)))
    plain.Kernel.consumed_by;
  laid.Kernel.levels = Hydra_netlist.Levelize.compute laid.Kernel.netlist
  && laid.Kernel.consumed_by = moved
  && laid.Kernel.fused = plain.Kernel.fused

(* Drive every word of a slab and one wide engine per word with the same
   per-word random streams; all outputs must agree word-for-word each
   cycle. *)
let words_independent ~k nodes =
  let nl = Test_wide.netlist_of nodes in
  let slab = Slab.create ~k nl in
  let wides = Array.init k (fun _ -> Wide.create nl) in
  let st = Random.State.make [| 0x51ab; k |] in
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
let reset_lanes_law ~k nodes =
  let nl = Test_wide.netlist_of nodes in
  let mk () = slab_of ~k ~fuse:false nl in
  let slab = mk () and twin = mk () and fresh = mk () in
  let st = Random.State.make [| 0x2e5e7; k; List.length nodes |] in
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

(* [nodes] with a three-dff chain behind its first output: a dff whose
   driver is a dff, which the tick must latch from its pre-tick word. *)
let chained_netlist nodes =
  let a = G.input "a" and b = G.input "b" and c = G.input "c" in
  let outs = Test_wide.build (module G) ~inputs:[ a; b; c ] nodes in
  N.extract ~inputs:[ a; b; c ]
    ~outputs:
      (("chain", G.dff (G.dff (G.dff (List.hd outs))))
      :: List.mapi (fun i o -> (Printf.sprintf "o%d" i, o)) outs)

(* After each tick every dff's K words equal those of K packed reference
   interpreters, one per word, run on the slab's own netlist (its
   indices, relaid out or not) with the same random inputs. *)
let tick_law ~k ~relayout nodes =
  let slab = slab_of ~k ~relayout (chained_netlist nodes) in
  let nl = Slab.netlist slab in
  let sims = Array.init k (fun _ -> Sim.packed_create nl) in
  let dffs =
    List.filter
      (fun i -> match nl.N.components.(i) with N.Dffc _ -> true | _ -> false)
      (List.init (N.size nl) Fun.id)
  in
  let chained = List.exists (fun d -> List.mem nl.N.fanin.(d).(0) dffs) dffs in
  let st = Random.State.make [| 0x71c; k; List.length nodes |] in
  let ok = ref chained in
  for _cycle = 0 to 7 do
    List.iter
      (fun name ->
        for w = 0 to k - 1 do
          let v = random_word st in
          Slab.set_input_word slab name w v;
          Sim.packed_set_input sims.(w) name v
        done)
      [ "a"; "b"; "c" ];
    Slab.settle slab;
    Slab.tick slab;
    Array.iter
      (fun sim ->
        Sim.packed_settle sim;
        Sim.packed_tick sim;
        (* a settle exposes the latched state as each dff's word *)
        Sim.packed_settle sim)
      sims;
    List.iter
      (fun d ->
        for w = 0 to k - 1 do
          if Slab.peek_word slab d w <> Sim.packed_value sims.(w) d then ok := false
        done)
      dffs
  done;
  !ok

(* The lane passes against a [peek_word] reference: a slab of golden
   broadcast words with a few single-lane differences, half of them in
   the last word and many at lane 0 or the last lane, and site sets of
   up to five random components (empty and duplicate sets included) that
   often end at a changed one, so a pass that skips a site or a word
   shows. *)
let lane_pass_law seed =
  let st = Random.State.make [| 0x1a9e; seed |] in
  let nl = ripple_netlist 4 in
  let n = N.size nl in
  List.for_all
    (fun k ->
      let s = Slab.create ~k nl in
      for i = 0 to n - 1 do
        let g = if Random.State.bool st then Packed.lane_mask else 0 in
        for w = 0 to k - 1 do
          Slab.poke_word s i w g
        done
      done;
      let changed =
        Array.init
          (1 + Random.State.int st 3)
          (fun _ ->
            let i = Random.State.int st n in
            let w = if Random.State.bool st then k - 1 else Random.State.int st k in
            let lane =
              match Random.State.int st 3 with
              | 0 -> 0
              | 1 -> Packed.lanes - 1
              | _ -> Random.State.int st Packed.lanes
            in
            Slab.poke_word s i w (Slab.peek_word s i w lxor (1 lsl lane));
            i)
      in
      let pick len =
        let a = Array.init len (fun _ -> Random.State.int st n) in
        if len > 0 && Random.State.bool st then
          a.(len - 1) <- changed.(Random.State.int st (Array.length changed));
        if len > 1 && Random.State.int st 4 = 0 then a.(0) <- a.(len - 1);
        a
      in
      let reference f sites =
        Array.init k (fun w ->
            Array.fold_left (fun acc j -> acc lor f j w) 0 sites land Packed.lane_mask)
      in
      let diff i w = Slab.peek_word s i w lxor -(Slab.peek_word s i 0 land 1) in
      let out = Array.make k (-1) in
      List.for_all
        (fun _ ->
          let len = Random.State.int st 6 in
          let sites = pick len and srcs = pick len in
          Slab.diff_lanes s (Slab.sites s sites) out;
          let diff_ok = out = reference diff sites in
          Slab.latch_lanes s ~dffs:(Slab.sites s sites) ~srcs:(Slab.sites s srcs) out;
          diff_ok
          && out
             = reference
                 (fun j w -> Slab.peek_word s sites.(j) w lxor Slab.peek_word s srcs.(j) w)
                 (Array.init len Fun.id))
        [ 1; 2; 3; 4 ])
    ks

let suite =
  [
    qc ~count:25 "tick = packed reference tick, dff chains included (all k, relayout)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        List.for_all
          (fun k -> List.for_all (fun relayout -> tick_law ~k ~relayout nodes) [ true; false ])
          ks);
    qc ~count:25 "reset_lanes = power-up in masked lanes, rest untouched"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes -> List.for_all (fun k -> reset_lanes_law ~k nodes) [ 1; 2 ]);
    qc ~count:25 "slab words = independent wide engines (all k)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes -> List.for_all (fun k -> words_independent ~k nodes) ks);
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
          (fun k -> Slab.run_packed (Slab.create ~k nl) ~inputs ~cycles = expect)
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
          (fun k ->
            let got = Slab.run_vectors (Slab.create ~k nl) vectors in
            Array.iteri
              (fun i row ->
                if row <> expect.(i) then
                  Alcotest.failf "vector %d diverges (k=%d)" i k)
              got)
          [ 1; 2; 4 ]);
    tc "global lanes: set_input_lane / output_lane address word l/62"
      (fun () ->
        let a = G.input "a" in
        let nl = N.extract ~inputs:[ a ] ~outputs:[ ("y", G.inv a) ] in
        let s = Slab.create ~k:3 nl in
        let lane = (2 * Packed.lanes) + 17 in
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
          (fun () -> Slab.set_input_lane s "a" (3 * Packed.lanes) true));
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
        let plain = slab_of ~k:3 ~fuse:false ~relayout:false nl in
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
        let mk_wide () = slab_of ~k:1 ~relayout:false ~fuse:false nl in
        let slab = slab_of ~k:2 ~relayout:false ~fuse:false nl in
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
    qc ~count:15 "forces: install, mutate in place, clear — all heal"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        let mk () = slab_of ~k:2 ~fuse:false ~relayout:false nl in
        (* [inplace] keeps one registered force and edits its masks in
           place (the Campaign intermittent-fault path); [fresh]
           re-registers a copy after every edit *)
        let inplace = mk () and fresh = mk () and clean = mk () in
        let f =
          {
            Slab.f_site = N.size nl / 2;
            force0 = [| 0; 0 |];
            force1 = [| 0; 0 |];
            flip = [| 0; 0x155 |];
          }
        in
        let register () =
          Slab.set_forces fresh [| { f with flip = Array.copy f.Slab.flip } |]
        in
        let st = Random.State.make [| 0xf06 |] in
        let ok = ref true in
        let phase ~toggling cycles =
          for _ = 1 to cycles do
            List.iter
              (fun name ->
                for w = 0 to 1 do
                  let v = if toggling then random_word st else 0 in
                  Slab.set_input_word inplace name w v;
                  Slab.set_input_word fresh name w v
                done)
              [ "a"; "b"; "c" ];
            Slab.settle inplace;
            Slab.settle fresh;
            List.iter
              (fun (out, _) ->
                for w = 0 to 1 do
                  if Slab.output_word inplace out w <> Slab.output_word fresh out w
                  then ok := false
                done)
              (outputs_of (Slab.netlist inplace));
            Slab.tick inplace;
            Slab.tick fresh
          done
        in
        phase ~toggling:true 10;
        Slab.set_forces inplace [| f |];
        register ();
        phase ~toggling:true 10;
        phase ~toggling:false 12;
        f.Slab.flip.(0) <- 0x2a;
        register ();
        phase ~toggling:false 12;
        Slab.clear_forces inplace;
        Slab.clear_forces fresh;
        phase ~toggling:false 12;
        (* healed: from [inplace]'s state, inputs and constants, a
           never-forced engine settles every component to the same words *)
        let comps = nl.N.components in
        Array.iteri
          (fun i c ->
            match c with
            | N.Inport _ | N.Constant _ | N.Dffc _ ->
              for w = 0 to 1 do
                Slab.poke_word clean i w (Slab.peek_word inplace i w)
              done
            | _ -> ())
          comps;
        Slab.settle inplace;
        Slab.settle clean;
        Array.iteri
          (fun i _ ->
            for w = 0 to 1 do
              if Slab.peek_word inplace i w <> Slab.peek_word clean i w then
                ok := false
            done)
          comps;
        phase ~toggling:true 8;
        !ok);
    qc ~count:15 "C block kernel = packed oracle (all k)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        List.for_all
          (fun k ->
            Equiv.seq_equivalent (Equiv.slab_vs_wide ~passes:1 ~cycles:8 ~k nl))
          (* under AVX2: 1 the k = 1 specialisation, 2 and 3 the tail
             loop only, 5 one vector body plus the tail, 8 vector bodies
             only *)
          [ 1; 2; 3; 5; 8 ]);
    qc ~count:300 "compile: re-layout levels = compute, fusion plan carried through perm"
      Test_netlist.gen_raw
      (fun (shape, inputs, nodes) ->
        relayout_law
          (Test_netlist.raw_netlist ((if shape = 1 then 0 else shape), inputs, nodes)));
    tc "compile: re-layout law on fused circuits" (fun () ->
        List.iter
          (fun (what, nl) ->
            check_bool (what ^ " fuses") true
              ((Kernel.compile nl).Kernel.fused > 0);
            check_bool what true (relayout_law nl))
          [ ("ripple:8", ripple_netlist 8); ("every kind", every_kind_netlist ()) ]);
    tc "of_program range-checks every descriptor index" (fun () ->
        let prog = Kernel.compile ~k:1 (every_kind_netlist ()) in
        let size = Kernel.size prog in
        (* each kind's first rank and the position of its first tuple *)
        let first kd =
          let rec go r =
            let d = prog.Kernel.ranks.(r) in
            if d.(kd + 1) > 0 then begin
              let pos = ref Kernel.header in
              for j = 0 to kd - 1 do
                pos := !pos + (d.(j + 1) * (1 + Kernel.arity.(j)))
              done;
              (r, !pos)
            end
            else go (r + 1)
          in
          go 0
        in
        (* [prog] with rank [r]'s descriptor replaced by [f] of a copy *)
        let corrupt r f =
          let ranks = Array.copy prog.Kernel.ranks in
          ranks.(r) <- f (Array.copy ranks.(r));
          { prog with Kernel.ranks }
        in
        let names_rank_and what r frag p =
          match Slab.of_program p with
          | _ -> Alcotest.failf "%s: accepted" what
          | exception Invalid_argument m ->
            let prefix = Printf.sprintf "Slab.of_program: rank %d " r in
            if not (String.starts_with ~prefix m && Test_extract.contains m frag)
            then Alcotest.failf "%s: %S does not name rank %d and %S" what m r frag
        in
        Array.iteri
          (fun kd name ->
            let r, pos = first kd in
            (* every tuple position, one word below and at the end of
               the index range *)
            for j = 0 to Kernel.arity.(kd) do
              List.iter
                (fun bad ->
                  let what = Printf.sprintf "%s word %d = %d" name j bad in
                  Alcotest.check_raises what
                    (Invalid_argument
                       (Printf.sprintf
                          "Slab.of_program: rank %d %s gate index %d out of range [0, %d)"
                          r name bad size))
                    (fun () ->
                      ignore
                        (Slab.of_program
                           (corrupt r (fun d ->
                                d.(pos + j) <- bad;
                                d)))))
                [ -1; size ]
            done;
            (* the kind's header count one too high and one too low *)
            List.iter
              (fun delta ->
                let c = prog.Kernel.ranks.(r).(kd + 1) + delta in
                names_rank_and
                  (Printf.sprintf "%s count %+d" name delta)
                  r
                  (Printf.sprintf "%s %d" name c)
                  (corrupt r (fun d ->
                       d.(kd + 1) <- c;
                       d)))
              [ 1; -1 ])
          Kernel.kind_names;
        (* counts whose words add up to the length: and = -1 with or
           one higher per and tuple (both have 3 words), and an orand
           count 2^61 higher, whose 4 * 2^61 extra words wrap to 0 *)
        let r, _ = first 1 in
        names_rank_and "negative count" r "and count -1"
          (corrupt r (fun d ->
               d.(3) <- d.(3) + d.(2) + 1;
               d.(2) <- -1;
               d));
        let r, _ = first 5 in
        let huge = prog.Kernel.ranks.(r).(6) + (1 lsl 61) in
        names_rank_and "wrapping count" r (Printf.sprintf "orand count %d" huge)
          (corrupt r (fun d ->
               d.(6) <- huge;
               d));
        (* a word too many or too few: one appended, the last word of the
           last kind's tuples cut off, a descriptor shorter than its
           header *)
        let r, _ = first (Kernel.n_kinds - 1) in
        let out = Printf.sprintf "out %d" prog.Kernel.ranks.(r).(Kernel.n_kinds) in
        names_rank_and "extra word" r out
          (corrupt r (fun d -> Array.append d [| 0 |]));
        names_rank_and "cut tuple" r out
          (corrupt r (fun d -> Array.sub d 0 (Array.length d - 1)));
        names_rank_and "cut header" r "shorter than its"
          (corrupt r (fun d -> Array.sub d 0 (Kernel.header - 1)));
        (* the untouched program still settles like the reference *)
        let untouched : (module Hydra_engine.Engine_intf.S) =
          (module struct
            include Slab

            let name = "untouched"
            let create _ = Slab.of_program prog
          end)
        in
        check_bool "untouched = oracle" true
          (Equiv.seq_equivalent
             (Equiv.engine_random_netlists ~passes:2 ~cycles:8 untouched
                Hydra_engine.Engine_intf.oracle prog.Kernel.netlist
                prog.Kernel.netlist));
        let seq =
          let x = G.input "x" in
          N.extract ~inputs:[ x ] ~outputs:[ ("q", G.dff (G.inv x)) ]
        in
        let sprog = Kernel.compile ~k:2 seq in
        Alcotest.check_raises "dff_src"
          (Invalid_argument
             (Printf.sprintf
                "Slab.of_program: dff_src index -1 out of range [0, %d)"
                (Kernel.size sprog)))
          (fun () ->
            ignore
              (Slab.of_program
                 {
                   sprog with
                   Kernel.dff_src = Array.map (fun _ -> -1) sprog.Kernel.dff_src;
                 }));
        (* a dff past the end of the slab: the C tick would write there *)
        Alcotest.check_raises "dffs"
          (Invalid_argument
             (Printf.sprintf "Slab.of_program: dffs index %d out of range [0, %d)"
                (Kernel.size sprog) (Kernel.size sprog)))
          (fun () ->
            Slab.tick
              (Slab.of_program
                 {
                   sprog with
                   Kernel.dffs = Array.map (fun _ -> Kernel.size sprog) sprog.Kernel.dffs;
                 }));
        (* per-dff arrays shorter than [dffs], and a K below 1: the tick
           and the value slab would index past their arrays *)
        let rejects what msg corrupt =
          Alcotest.check_raises what (Invalid_argument msg) (fun () ->
              ignore (Slab.of_program corrupt))
        in
        rejects "empty dff_src"
          "Slab.of_program: dff_src has 0 entries, dffs has 1"
          { sprog with Kernel.dff_src = [||] };
        rejects "empty dff_init"
          "Slab.of_program: dff_init has 0 entries, dffs has 1"
          { sprog with Kernel.dff_init = [||] };
        rejects "k = 0" "Slab.of_program: k = 0, must be >= 1"
          { sprog with Kernel.k = 0 };
        (* levels that disagree with the ranks: set_forces and the cone
           settle index force slots and ranks by a gate's level *)
        let lv = sprog.Kernel.levels in
        let inv =
          let rec find i =
            if sprog.Kernel.netlist.N.components.(i) = N.Invc then i
            else find (i + 1)
          in
          find 0
        in
        let nr = Kernel.n_ranks sprog in
        rejects "short levels"
          (Printf.sprintf "Slab.of_program: levels has 0 entries, netlist has %d"
             (Kernel.size sprog))
          { sprog with Kernel.levels = { lv with levels = [||] } };
        rejects "level past the last rank"
          (Printf.sprintf
             "Slab.of_program: component %d has level %d, outside the %d ranks"
             inv nr nr)
          {
            sprog with
            Kernel.levels =
              {
                lv with
                levels =
                  Array.mapi
                    (fun i l -> if i = inv then nr else l)
                    lv.Hydra_netlist.Levelize.levels;
              };
          };
        (* the untouched program still builds and ticks *)
        Slab.tick (Slab.of_program sprog));
    (* the dff arrays, the constants and the site sets, on a circuit
       whose arrays leave OCaml's pooled heap (the CPU has more than 128
       dffs): one entry at -1 or at the size, or an array cut short, is
       refused naming the field, and the untouched program settles like
       the reference *)
    (let prog =
       lazy (Kernel.compile ~k:2 (Hydra_cpu.Driver.system_netlist ~mem_bits:6 ()))
     in
     let untouched =
       lazy
         (let prog = Lazy.force prog in
          let e : (module Hydra_engine.Engine_intf.S) =
            (module struct
              include Slab

              let name = "untouched"
              let create _ = Slab.of_program prog
            end)
          in
          Equiv.seq_equivalent
            (Equiv.engine_random_netlists ~passes:1 ~cycles:8 e
               Hydra_engine.Engine_intf.oracle prog.Kernel.netlist
               prog.Kernel.netlist))
     in
     qc ~count:60 "of_program and sites range-check the dff arrays and constants (cpu)"
       QCheck2.Gen.(triple (int_bound 5) (int_bound 1_000_000) bool)
       (fun (field, pos, past) ->
         let prog = Lazy.force prog in
         let size = Kernel.size prog and ndffs = Array.length prog.Kernel.dffs in
         let bad = if past then size else -1 in
         let set a =
           let a = Array.copy a in
           a.(pos mod Array.length a) <- bad;
           a
         in
         let consts () =
           Array.mapi
             (fun j (i, b) -> ((if j = pos mod Array.length prog.Kernel.consts then bad else i), b))
             prog.Kernel.consts
         in
         let index what =
           Printf.sprintf "Slab.of_program: %s index %d out of range [0, %d)" what bad size
         in
         let cut what =
           Printf.sprintf "Slab.of_program: %s has %d entries, dffs has %d" what
             (pos mod ndffs) ndffs
         in
         let refused msg f =
           match f () with
           | () -> false
           | exception Invalid_argument m -> m = msg
         in
         let build p () = ignore (Slab.of_program p) in
         ndffs > 128
         && Lazy.force untouched
         &&
         match field with
         | 0 -> refused (index "dffs") (build { prog with Kernel.dffs = set prog.Kernel.dffs })
         | 1 ->
           refused (index "dff_src") (build { prog with Kernel.dff_src = set prog.Kernel.dff_src })
         | 2 -> refused (index "consts") (build { prog with Kernel.consts = consts () })
         | 3 ->
           refused (cut "dff_src")
             (build { prog with Kernel.dff_src = Array.sub prog.Kernel.dff_src 0 (pos mod ndffs) })
         | 4 ->
           refused (cut "dff_init")
             (build { prog with Kernel.dff_init = Array.sub prog.Kernel.dff_init 0 (pos mod ndffs) })
         | _ ->
           refused
             (Printf.sprintf "Slab.sites: site %d out of range [0, %d)" bad size)
             (fun () -> ignore (Slab.sites (Slab.of_program prog) [| 0; bad |]))));
    tc "of_program copies the arrays the stubs index, also at k = 1" (fun () ->
        let seq =
          let x = G.input "x" in
          N.extract ~inputs:[ x ] ~outputs:[ ("q", G.dff (G.inv x)) ]
        in
        let prog = Kernel.compile ~k:1 seq in
        let s = Slab.of_program prog in
        (* writes into the program after the engine exists, far outside
           the slab: the stubs must not see them *)
        let bad = 50_000_000 in
        prog.Kernel.dffs.(0) <- bad;
        prog.Kernel.dff_src.(0) <- bad;
        Array.iter
          (fun d -> Array.fill d Kernel.header (Array.length d - Kernel.header) bad)
          prog.Kernel.ranks;
        Slab.set_input s "x" 0;
        Slab.settle s;
        Slab.tick s;
        Slab.settle s;
        check_int "q = not x" Packed.lane_mask (Slab.output s "q"));
    qc ~count:200 "lane passes = peek_word reference (all k)" QCheck2.Gen.int lane_pass_law;
    tc "lane passes: range and length errors name the field" (fun () ->
        let nl = ripple_netlist 4 in
        let s = Slab.create ~k:2 nl in
        let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
        raises "site past the end" "Slab.sites: site 34 out of range [0, 34)" (fun () ->
            ignore (Slab.sites s [| 0; 34 |]));
        raises "negative site" "Slab.sites: site -1 out of range [0, 34)" (fun () ->
            ignore (Slab.sites s [| -1 |]));
        let two = Slab.sites s [| 0; 33 |] and one = Slab.sites s [| 5 |] in
        raises "diff out too long" "Slab.diff_lanes: out has length 3, must be k = 2"
          (fun () -> Slab.diff_lanes s two (Array.make 3 0));
        raises "latch out too short" "Slab.latch_lanes: out has length 1, must be k = 2"
          (fun () -> Slab.latch_lanes s ~dffs:two ~srcs:two (Array.make 1 0));
        raises "srcs shorter than dffs" "Slab.latch_lanes: srcs has 1 sites, dffs has 2"
          (fun () -> Slab.latch_lanes s ~dffs:two ~srcs:one (Array.make 2 0));
        raises "another circuit's sites"
          "Slab.diff_lanes: the sites were made for another circuit" (fun () ->
            Slab.diff_lanes (Slab.create ~k:2 nl) two (Array.make 2 0));
        (* a replica shares the program the sites index *)
        Slab.diff_lanes (Slab.replicate s) two (Array.make 2 0));
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
    tc "component index range errors are descriptive" (fun () ->
        (* a 4-bit ripple adder has 34 components: index 34 is the first
           past the end, where a k = 4 slab keeps its pad words *)
        let nl = ripple_netlist 4 in
        check_int "components" 34 (N.size nl);
        let s = Slab.create ~k:4 nl in
        let raises (name, i) f =
          Alcotest.check_raises name
            (Invalid_argument
               (Printf.sprintf
                  "%s: component %d out of range (netlist has 34 components)"
                  name i))
            f
        in
        raises ("Slab.peek_word", 34) (fun () -> ignore (Slab.peek_word s 34 0));
        raises ("Slab.poke_word", 34) (fun () -> Slab.poke_word s 34 0 5);
        raises ("Slab.peek", 34) (fun () -> ignore (Slab.peek s 34));
        raises ("Slab.poke", -1) (fun () -> Slab.poke s (-1) 5);
        raises ("Slab.peek_word", -1) (fun () -> ignore (Slab.peek_word s (-1) 3));
        (* the last component is still in range *)
        Slab.poke_word s 33 3 0;
        ignore (Slab.peek s 33));
    tc "fanout_cone rejects bad seeds, fused engines and stale cones" (fun () ->
        (* sixteen independent inverters: every closure is an inport, its
           inverter and its outport, inside the n/8 bound *)
        let nl =
          N.of_graph
            ~outputs:
              (List.init 16 (fun i ->
                   (Printf.sprintf "y%d" i, G.inv (G.input (Printf.sprintf "a%d" i)))))
        in
        let n = N.size nl in
        let s = slab_of ~k:2 ~relayout:false ~fuse:false nl in
        let range i =
          Invalid_argument
            (Printf.sprintf
               "Slab.fanout_cone: component %d out of range (netlist has %d \
                components)"
               i n)
        in
        Alcotest.check_raises "seed past the end" (range n) (fun () ->
            ignore (Slab.fanout_cone s [| 3; n |]));
        Alcotest.check_raises "negative seed" (range (-1)) (fun () ->
            ignore (Slab.fanout_cone s [| -1 |]));
        let fused = Slab.create ~k:2 (ripple_netlist 4) in
        check_bool "ripple fuses" true (Slab.fused_gates fused > 0);
        Alcotest.check_raises "fused"
          (Invalid_argument
             "Slab.fanout_cone: requires an engine built with ~fuse:false")
          (fun () -> ignore (Slab.fanout_cone fused [| 3 |]));
        let cone seeds =
          match Slab.fanout_cone s seeds with
          | Some c -> c
          | None -> Alcotest.fail "a cone inside the bound was refused"
        in
        (* a cone belongs to the instance that built it, until its next *)
        let c = cone [| 3 |] in
        let tr = Slab.trace s ~cycles:1 in
        let other = Slab.replicate s in
        Alcotest.check_raises "another instance"
          (Invalid_argument
             "Slab.settle_cone: the cone belongs to another engine instance \
              or was replaced")
          (fun () -> Slab.settle_cone other c tr 0);
        ignore (cone [| 4 |]);
        Alcotest.check_raises "replaced"
          (Invalid_argument
             "Slab.in_cone: the cone belongs to another engine instance or \
              was replaced")
          (fun () -> ignore (Slab.in_cone s c 3));
        Alcotest.check_raises "cycle past the trace"
          (Invalid_argument "Slab.settle_cone: cycle 1 outside the trace (1 cycles)")
          (fun () -> Slab.settle_cone s (cone [| 3 |]) tr 1);
        Alcotest.check_raises "another circuit's trace"
          (Invalid_argument "Slab.record_row: the trace was made for another circuit")
          (fun () -> Slab.record_row s (Slab.trace (Slab.create (ripple_netlist 3)) ~cycles:1) 0));
    qc ~count:30
      "settle_cone = settle on the fanout cone of forced sites (k)"
      QCheck2.Gen.(
        triple (Test_wide.gen_nodes Test_wide.dff_heavy_ops) (int_bound 1000)
          (oneofl [ 1; 4 ]))
      (fun (nodes, seed, k) ->
        (* sixteen copies of the random circuit on shared inputs, so the
           closure of a gate inside one copy fits the n/8 bound *)
        let nl =
          let ins = [ G.input "a"; G.input "b"; G.input "c" ] in
          N.extract ~inputs:ins
            ~outputs:
              (List.concat
                 (List.init 16 (fun j ->
                      List.mapi
                        (fun i o -> (Printf.sprintf "o%d_%d" j i, o))
                        (Test_wide.build (module G) ~inputs:ins nodes))))
        in
        let mk () = slab_of ~k ~relayout:false ~fuse:false nl in
        (* [full] settles everything, [coned] only the cone of the forced
           sites, from [golden]'s rows; both carry the same forces *)
        let golden = mk () and full = mk () and coned = mk () in
        let st = Random.State.make [| seed |] in
        let n = N.size nl in
        (* the closure, walked here over [N.fanout]; [fanout_cone] must
           find the same set, or refuse one past n/8 *)
        let readers = N.fanout nl in
        let closure sites =
          let inside = Array.make n false in
          let rec visit i =
            if not inside.(i) then begin
              inside.(i) <- true;
              for e = readers.N.off.(i) to readers.N.off.(i + 1) - 1 do
                visit readers.N.sink.(e)
              done
            end
          in
          Array.iter visit sites;
          inside
        in
        let size inside = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inside in
        let agrees sites =
          let inside = closure sites in
          match Slab.fanout_cone coned sites with
          | None -> size inside > n / 8
          | Some c ->
            size inside <= n / 8
            && List.for_all (fun i -> Slab.in_cone coned c i = inside.(i)) (List.init n Fun.id)
        in
        let gates =
          List.filter
            (fun i -> match nl.N.components.(i) with N.Outport _ -> false | _ -> true)
            (List.init n Fun.id)
        in
        let pick m l = Array.init m (fun _ -> List.nth l (Random.State.int st (List.length l))) in
        let any = pick (1 + Random.State.int st 6) gates in
        (* forced sites whose closures fit the bound together, where the
           circuit has such sites *)
        let small = List.filter (fun i -> size (closure [| i |]) <= n / 16) gates in
        let sites = if small = [] then any else pick 2 small in
        let fs =
          Array.map
            (fun site ->
              {
                Slab.f_site = site;
                force0 = Array.init k (fun _ -> random_word st);
                force1 = Array.make k 0;
                flip = Array.init k (fun _ -> random_word st);
              })
            sites
        in
        Slab.set_forces full fs;
        Slab.set_forces coned fs;
        let inside = closure sites in
        agrees any && agrees sites
        &&
        match Slab.fanout_cone coned sites with
        | None -> true
        | Some cone ->
          let tr = Slab.trace golden ~cycles:6 in
          let ok = ref true in
          for c = 0 to 5 do
            List.iter
              (fun name ->
                let w = Packed.broadcast (Random.State.bool st) in
                List.iter
                  (fun s ->
                    for j = 0 to k - 1 do
                      Slab.set_input_word s name j w
                    done)
                  [ golden; full; coned ])
              [ "a"; "b"; "c" ];
            Slab.settle golden;
            Slab.record_row golden tr c;
            Slab.settle full;
            Slab.settle_cone coned cone tr c;
            for i = 0 to n - 1 do
              if inside.(i) then
                for w = 0 to k - 1 do
                  if Slab.peek_word full i w <> Slab.peek_word coned i w then ok := false
                done
            done;
            List.iter Slab.tick [ golden; full; coned ]
          done;
          !ok);
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
          (fun k ->
            let got =
              Testbench.run_batched ~engine:(Slab.engine k) ~cycles:8 ~cases nl
            in
            Array.iteri
              (fun i r ->
                if r <> reference.(i) then
                  Alcotest.failf "case %d differs (k=%d)" i k)
              got)
          [ 1; 4; 3 ];
        check_bool "case 70 failed" false (Testbench.passed reference.(70)));
    qc ~count:10 "Equiv.slab_vs_wide holds on random netlists (k)"
      (Test_wide.gen_nodes Test_wide.dff_heavy_ops)
      (fun nodes ->
        let nl = Test_wide.netlist_of nodes in
        List.for_all
          (fun k ->
            Equiv.seq_equivalent (Equiv.slab_vs_wide ~passes:2 ~cycles:10 ~k nl))
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
        let (module E) = Slab.engine 4 in
        check_string "handle name" "slab(k=4)" E.name;
        (* and the symmetric orientation, oracle first *)
        check_bool "oracle vs slab" false
          (Equiv.seq_equivalent
             (Equiv.engine_random_netlists ~passes:1 ~cycles:4
                Hydra_engine.Engine_intf.oracle (Slab.engine 3)
                (mk false) (mk true))));
    tc "wide_random_netlists = engine_random_netlists at k=1 (same mismatch)"
      (fun () ->
        (* a rare planted bug (all eight inputs high, two cycles back), so
           the failing pass, cycle and lane depend on the stimulus draw:
           the two checks agree only if they draw the same stimulus *)
        let mk planted =
          let ins = List.init 8 (fun i -> G.input (Printf.sprintf "i%d" i)) in
          let all = List.fold_left G.and2 (List.hd ins) (List.tl ins) in
          let q = G.dff (G.xor2 (List.nth ins 0) (List.nth ins 1)) in
          let q = if planted then G.xor2 q (G.dff (G.dff all)) else q in
          N.extract ~inputs:ins ~outputs:[ ("q", q) ]
        in
        let good = mk false and bad = mk true in
        let mismatches =
          List.filter_map
            (fun seed ->
              let wide =
                Equiv.wide_random_netlists ~passes:3 ~cycles:6 ~seed good bad
              in
              let engine =
                Equiv.engine_random_netlists ~passes:3 ~cycles:6 ~seed
                  (Slab.engine 1) (Slab.engine 1) good bad
              in
              check_bool (Printf.sprintf "seed %d: same result" seed) true
                (wide = engine);
              match wide with
              | Equiv.Seq_mismatch { cycle; _ } -> Some cycle
              | Equiv.Seq_equivalent -> None)
            (List.init 8 Fun.id)
        in
        check_bool "the planted bug is found" true (mismatches <> []);
        check_bool "found past cycle 2" true (List.exists (fun c -> c > 2) mismatches));
    tc "Equiv's engine checks reject port mismatches, naming the caller"
      (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let y = N.extract ~inputs:[ a ] ~outputs:[ ("y", G.inv a) ] in
        let z = N.extract ~inputs:[ a ] ~outputs:[ ("z", G.inv a) ] in
        let yb = N.extract ~inputs:[ b ] ~outputs:[ ("y", G.inv b) ] in
        let rejects msg f =
          Alcotest.check_raises msg (Invalid_argument ("Equiv." ^ msg)) (fun () ->
              ignore (f ()))
        in
        let oracle = Hydra_engine.Engine_intf.oracle in
        rejects "wide_random_netlists: input ports differ" (fun () ->
            Equiv.wide_random_netlists y yb);
        rejects "wide_random_netlists: output ports differ" (fun () ->
            Equiv.wide_random_netlists y z);
        rejects "engine_random_netlists: input ports differ" (fun () ->
            Equiv.engine_random_netlists (Slab.engine 1) oracle y yb);
        rejects "engine_random_netlists: output ports differ" (fun () ->
            Equiv.engine_random_netlists (Slab.engine 1) oracle y z));
  ]
