(* The lane-parallel fault-campaign engine: force-mask injection
   equivalence with netlist rewriting, coverage bit-identity with the
   historic per-fault-recompile loop, fault classification (detected /
   latent / masked), the SEU and intermittent models, the ECC and CPU
   graceful-degradation demonstrations, and the pinned JSON contract. *)

open Util

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module W = Hydra_engine.Compiled_wide
module Slab = Hydra_engine.Slab
module Scheduler = Hydra_engine.Scheduler
module Fault = Hydra_verify.Fault
module C = Hydra_verify.Campaign
module Chaos = Hydra_verify.Chaos
module Lint = Hydra_analyze.Lint
module Sim = Hydra_analyze.Sim
module D = Hydra_analyze.Diagnostic

let fig1 () =
  let a = G.input "a" and b = G.input "b" in
  N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ]

let ripple n =
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

(* out = dff(dff x): input effects need two observation cycles to reach
   the output, so cycles_per_vector matters. *)
let two_stage () =
  let x = G.input "x" in
  N.of_graph ~outputs:[ ("y", G.dff (G.dff x)) ]

(* The secded catalogue circuit: SECDED-protected register next to an
   unprotected two-stage pipeline over the same 4 data inputs. *)
let secded () =
  let module E = Hydra_circuits.Ecc.Protected (G) in
  let data = List.init 4 (fun i -> G.input (Printf.sprintf "d%d" i)) in
  let dec, single, double = E.secded_reg data in
  let plain = E.plain_pipeline data in
  N.of_graph
    ~outputs:
      (List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) dec
      @ [ ("single", single); ("double", double) ]
      @ List.mapi (fun i s -> (Printf.sprintf "u%d" i, s)) plain)

let classification_of report fault =
  let v = List.find (fun v -> v.C.fault = fault) report.C.verdicts in
  v.C.classification

let is_detected = function C.Detected _ -> true | C.Latent | C.Masked -> false

(* A 4x4 Wallace multiplier with registered product bits: sequential,
   and most stuck-at faults show within two cycles, so chunks drop. *)
let wallace4 () =
  let module Wl = Hydra_circuits.Wallace.Make (G) in
  let xs = List.init 4 (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init 4 (fun i -> G.input (Printf.sprintf "y%d" i)) in
  N.of_graph
    ~outputs:
      (List.mapi (fun i p -> (Printf.sprintf "p%d" i, G.dff p)) (Wl.multw xs ys))

(* Every verdict of a many-fault campaign equals the fault's single-fault
   {!C.replay}: a single-fault run never drops or compacts. *)
let matches_replay report =
  List.for_all (fun v -> C.replay report v.C.fault = v) report.C.verdicts

(* An independent classifier on {!Sim}'s packed reference interpreter,
   which shares no code with the slab engines or the campaign's
   resolution rules: the faulty circuit runs beside the golden one for
   the whole window.  An SEU flips the dff's held word with
   [packed_poke]; a stuck-at fault rewrites the netlist with
   {!Fault.inject}.  Intermittent faults have no reference here. *)
let reference nl ~stimulus ~cycles fault =
  let golden = Sim.packed_create nl in
  let faulty, injected, upset =
    match fault with
    | C.Stuck_at { site; value } ->
      (Sim.packed_create (Fault.inject nl { Fault.site; stuck = value }), 0, None)
    | C.Seu { site; at_cycle } -> (Sim.packed_create nl, at_cycle, Some site)
    | C.Intermittent _ -> invalid_arg "reference: no intermittent model"
  in
  let input name c =
    match List.assoc_opt name stimulus with
    | Some bits when List.nth_opt bits c = Some true -> Hydra_core.Packed.lane_mask
    | _ -> 0
  in
  let rec go c =
    if c = cycles then begin
      (* settle once more so each dff's word is its final held state *)
      Sim.packed_settle golden;
      Sim.packed_settle faulty;
      if
        List.exists
          (fun d -> Sim.packed_value golden d land 1 <> Sim.packed_value faulty d land 1)
          (C.dff_sites nl)
      then C.Latent
      else C.Masked
    end
    else begin
      List.iter
        (fun (name, _) ->
          Sim.packed_set_input golden name (input name c);
          Sim.packed_set_input faulty name (input name c))
        nl.N.inputs;
      (match upset with
      | Some site when c = injected ->
        (* a settle exposes the held word, then the flip overwrites it *)
        Sim.packed_settle faulty;
        Sim.packed_poke faulty site (lnot (Sim.packed_value faulty site))
      | _ -> ());
      Sim.packed_settle golden;
      Sim.packed_settle faulty;
      match
        List.find_opt
          (fun (name, _) ->
            Sim.packed_output golden name land 1 <> Sim.packed_output faulty name land 1)
          nl.N.outputs
      with
      | Some (output, _) -> C.Detected { latency = c - injected; cycle = c; output }
      | None ->
        Sim.packed_tick golden;
        Sim.packed_tick faulty;
        go (c + 1)
    end
  in
  go 0

(* Every verdict equals the reference classifier's (memoized per distinct
   fault); intermittent verdicts fall back to {!C.replay}. *)
let matches_reference report =
  let memo = Hashtbl.create 64 in
  List.for_all
    (fun v ->
      match v.C.fault with
      | C.Intermittent _ -> C.replay report v.C.fault = v
      | f ->
        let expect =
          match Hashtbl.find_opt memo f with
          | Some e -> e
          | None ->
            let e =
              reference report.C.netlist ~stimulus:report.C.stimulus
                ~cycles:report.C.cycles f
            in
            Hashtbl.add memo f e;
            e
        in
        v.C.classification = expect)
    report.C.verdicts

let check_cov_equal name (a : Fault.coverage) (b : Fault.coverage) =
  check_int (name ^ ": total") a.Fault.total b.Fault.total;
  check_int (name ^ ": detected") a.Fault.detected b.Fault.detected;
  check_bool (name ^ ": undetected lists") true
    (a.Fault.undetected = b.Fault.undetected)

let suite =
  [
    (* ---- force masks vs netlist rewriting ---- *)
    tc "campaign: stuck-at force matches Fault.inject per cycle" (fun () ->
        let nl = fig1 () in
        let vectors = Hydra_core.Bit.vectors 2 in
        let good = Fault.response nl ~vectors ~cycles_per_vector:1 in
        List.iter
          (fun f ->
            let bad =
              Fault.response (Fault.inject nl f) ~vectors ~cycles_per_vector:1
            in
            let stimulus, cycles = C.stimulus_of_vectors nl vectors in
            let report =
              C.run nl
                ~faults:
                  [ C.Stuck_at { site = f.Fault.site; value = f.Fault.stuck } ]
                ~stimulus ~cycles
            in
            check_bool (Fault.fault_name nl f) (bad <> good)
              (is_detected (List.hd report.C.verdicts).C.classification))
          (Fault.all_faults nl));
    tc "campaign: set_forces rejects fused engines and bad sites" (fun () ->
        let nl = ripple 8 in
        let force site =
          { Slab.f_site = site; force0 = [| 0 |]; force1 = [| 2 |]; flip = [| 0 |] }
        in
        let fused = W.create nl in
        Alcotest.check_raises "fused"
          (Invalid_argument
             "Slab.set_forces: requires an engine built with ~fuse:false")
          (fun () -> Slab.set_forces fused [| force 1 |]);
        let sim = W.create ~optimize:false ~relayout:false ~fuse:false nl in
        let n = N.size nl in
        Alcotest.check_raises "site range"
          (Invalid_argument
             (Printf.sprintf
                "Slab.set_forces: force site %d out of range (netlist has %d \
                 components)"
                n n))
          (fun () -> Slab.set_forces sim [| force n |]);
        Alcotest.check_raises "negative site"
          (Invalid_argument
             (Printf.sprintf
                "Slab.set_forces: force site -1 out of range (netlist has %d \
                 components)"
                n))
          (fun () -> Slab.set_forces sim [| force (-1) |]));
    (* ---- coverage bit-identity ---- *)
    tc "campaign: coverage bit-identical to recompile loop (combinational)"
      (fun () ->
        List.iter
          (fun (name, nl, inputs) ->
            let vectors = Fault.random_vectors ~seed:3 ~inputs 24 in
            check_cov_equal name
              (Fault.coverage_recompile nl ~vectors)
              (Fault.coverage nl ~vectors))
          [
            ("fig1", fig1 (), 2);
            (* 124 faults: exercises >61-fault chunking over domains *)
            ("ripple8", ripple 8, 16);
          ]);
    tc "campaign: coverage bit-identical on a sequential circuit, cpv=2"
      (fun () ->
        let nl = two_stage () in
        let vectors = Fault.random_vectors ~seed:5 ~inputs:1 12 in
        check_cov_equal "two_stage"
          (Fault.coverage_recompile nl ~vectors ~cycles_per_vector:2)
          (Fault.coverage nl ~vectors ~cycles_per_vector:2));
    tc "campaign: scheduler reuse matches one-shot runs" (fun () ->
        let nl = ripple 8 in
        let sch = Scheduler.create ~domains:2 () in
        Fun.protect
          ~finally:(fun () -> Scheduler.shutdown sch)
          (fun () ->
            let faults = C.all_stuck_at nl in
            let stimulus = C.random_stimulus ~seed:11 ~cycles:20 nl in
            let once = C.run nl ~faults ~stimulus ~cycles:20 in
            let shared1 = C.run ~scheduler:sch nl ~faults ~stimulus ~cycles:20 in
            let shared2 = C.run ~scheduler:sch nl ~faults ~stimulus ~cycles:20 in
            check_bool "first shared run" true
              (once.C.verdicts = shared1.C.verdicts);
            check_bool "second shared run (scheduler reused)" true
              (once.C.verdicts = shared2.C.verdicts)));
    (* ---- generate_tests: cycles_per_vector threading (the old bug) ---- *)
    tc "campaign: generate_tests threads cycles_per_vector" (fun () ->
        let nl = two_stage () in
        (* a dff output fault needs 2 cycles of observation per vector to
           show at the output before the next vector overwrites stage 1 *)
        let vectors, cov2 =
          Fault.generate_tests ~seed:1 ~batch:4 ~max_vectors:32
            ~cycles_per_vector:2 nl
        in
        (* the returned coverage is exactly coverage at the same cpv *)
        check_cov_equal "returned = recomputed"
          (Fault.coverage nl ~vectors ~cycles_per_vector:2)
          cov2;
        (* and the old bug is gone: grading at cpv=1 would disagree *)
        let cov1 = Fault.coverage nl ~vectors ~cycles_per_vector:1 in
        check_bool "cpv=2 detects at least as much" true
          (cov2.Fault.detected >= cov1.Fault.detected));
    tc "campaign: generate_tests default grading unchanged" (fun () ->
        (* pre-rewire behaviour at the default cpv, pinned on an adder *)
        let nl = ripple 4 in
        let vectors, cov = Fault.generate_tests ~seed:42 ~target:0.95 nl in
        check_cov_equal "consistent with coverage"
          (Fault.coverage nl ~vectors) cov;
        check_bool "95%+ reached" true (Fault.ratio cov >= 0.95));
    (* ---- satellite: injected netlists validate and lint ---- *)
    tc "campaign: injected netlist validates; lint reports dead-logic"
      (fun () ->
        let nl = fig1 () in
        List.iter
          (fun f ->
            let bad = Fault.inject nl f in
            (match N.validate bad with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("validate: " ^ e));
            (* the faulted site still evaluates but drives nothing *)
            let diags = Lint.run bad in
            check_bool
              (Fault.fault_name nl f ^ ": dead-logic reported")
              true
              (List.exists (fun d -> d.D.rule = "dead-logic") diags))
          (Fault.all_faults nl));
    (* ---- satellite: SEU before reset completes vs power-up X ---- *)
    tc "campaign: SEU inside the power-up X window is not double-counted"
      (fun () ->
        let nl = two_stage () in
        (* establish the X window with the ternary simulator: both dffs
           unknown at power-up, known only after two steps *)
        let xs = Hydra_engine.Xsim.create ~respect_init:false nl in
        Hydra_engine.Xsim.set_input_bool xs "x" true;
        check_int "both dffs X at cycle 0" 2 (Hydra_engine.Xsim.unknown_dffs xs);
        Hydra_engine.Xsim.step xs;
        check_int "stage 2 still X at cycle 1" 1
          (Hydra_engine.Xsim.unknown_dffs xs);
        (* the output dff is the outport's driver *)
        let out_dff = nl.N.fanin.(List.assoc "y" nl.N.outputs).(0) in
        let stimulus = [ ("x", [ true; true; true; true; true; true ]) ] in
        let in_window = C.Seu { site = out_dff; at_cycle = 0 } in
        let after_window = C.Seu { site = out_dff; at_cycle = 3 } in
        let report =
          C.run nl ~faults:[ in_window; after_window ] ~stimulus ~cycles:6
        in
        (* exactly one verdict per scheduled fault — the two-valued
           campaign powers up from declared inits, so an upset inside the
           X window is one ordinary flip, not an extra power-up unknown *)
        check_int "one verdict per fault" 2 report.C.total;
        (match (classification_of report in_window,
                classification_of report after_window) with
        | C.Detected { latency = l0; _ }, C.Detected { latency = l3; _ } ->
          check_int "same latency in and out of the X window" l0 l3
        | _ -> Alcotest.fail "both upsets must be detected"));
    (* ---- classification semantics ---- *)
    tc "campaign: latent vs masked split on an unread register" (fun () ->
        (* y = dff(x), plus a self-holding register that never reaches y *)
        let x = G.input "x" in
        let dead = G.feedback (fun q -> G.dff q) in
        let live = G.dff x in
        (* keep [dead] in the netlist by routing it through an and with
           constant 0: y = live or (dead and 0) = live *)
        let y = G.or2 live (G.and2 dead G.zero) in
        let nl = N.of_graph ~outputs:[ ("y", y) ] in
        let dffs = C.dff_sites nl in
        check_int "two dffs" 2 (List.length dffs);
        let stimulus = [ ("x", [ true; true; false; true ]) ] in
        let faults = C.all_seu ~at_cycle:1 nl in
        let report = C.run nl ~faults ~stimulus ~cycles:4 in
        (* the self-holding dff keeps its upset forever but never reaches
           y: latent.  Upsetting the live dff shows at y the same cycle:
           detected. *)
        let classes =
          List.map (fun v -> C.class_string v.C.classification) report.C.verdicts
        in
        check_bool "one latent, one detected" true
          (List.sort compare classes = [ "detected"; "latent" ]));
    tc "campaign: SEU scheduled past the window is masked" (fun () ->
        let nl = two_stage () in
        let dff = List.hd (C.dff_sites nl) in
        let report =
          C.run nl
            ~faults:[ C.Seu { site = dff; at_cycle = 50 } ]
            ~stimulus:[ ("x", [ true; true ]) ]
            ~cycles:2
        in
        check_string "masked" "masked"
          (C.class_string (List.hd report.C.verdicts).C.classification));
    (* ---- intermittent model ---- *)
    tc "campaign: intermittent rate 1.0 detects, rate 0.0 masks" (fun () ->
        let nl = fig1 () in
        (* site 1 is the inv gate (inport a = 0) *)
        let stimulus, cycles =
          C.stimulus_of_vectors nl (Hydra_core.Bit.vectors 2)
        in
        let r1 =
          C.run nl
            ~faults:[ C.Intermittent { site = 1; rate = 1.0; seed = 9 } ]
            ~stimulus ~cycles
        in
        check_bool "always flipping is detected" true
          (is_detected (List.hd r1.C.verdicts).C.classification);
        let r0 =
          C.run nl
            ~faults:[ C.Intermittent { site = 1; rate = 0.0; seed = 9 } ]
            ~stimulus ~cycles
        in
        check_string "never flipping is masked" "masked"
          (C.class_string (List.hd r0.C.verdicts).C.classification));
    tc "campaign: intermittent verdict independent of chunk placement"
      (fun () ->
        let nl = ripple 8 in
        let stimulus = C.random_stimulus ~seed:2 ~cycles:16 nl in
        let im = C.Intermittent { site = 20; rate = 0.5; seed = 33 } in
        let alone =
          (List.hd (C.run nl ~faults:[ im ] ~stimulus ~cycles:16).C.verdicts)
            .C.classification
        in
        (* same fault rides in the second chunk of a 124-fault campaign *)
        let packed = C.all_stuck_at nl @ [ im ] in
        let big = C.run nl ~faults:packed ~stimulus ~cycles:16 in
        let last = List.nth big.C.verdicts (big.C.total - 1) in
        check_string "same classification" (C.class_string alone)
          (C.class_string last.C.classification));
    (* ---- replay ---- *)
    tc "campaign: replay reproduces every verdict" (fun () ->
        let nl = ripple 4 in
        let stimulus = C.random_stimulus ~seed:21 ~cycles:12 nl in
        let report =
          C.run nl ~faults:(C.all_stuck_at nl) ~stimulus ~cycles:12
        in
        List.iter
          (fun v ->
            let again = C.replay report v.C.fault in
            check_bool (v.C.name ^ " replays identically") true
              (again.C.classification = v.C.classification))
          report.C.verdicts);
    (* ---- ECC graceful degradation (the acceptance demo) ---- *)
    tc "campaign: SECDED masks every codeword SEU, bare pipeline diverges"
      (fun () ->
        let nl = secded () in
        let stimulus = C.random_stimulus ~seed:17 ~cycles:8 nl in
        let report =
          C.run nl
            ~status_outputs:[ "single"; "double" ]
            ~faults:(C.all_seu ~at_cycle:3 nl)
            ~stimulus ~cycles:8
        in
        (* 8 codeword dffs + 8 pipeline dffs *)
        check_int "16 dffs swept" 16 report.C.total;
        let masked, detected =
          List.partition
            (fun v -> v.C.classification = C.Masked)
            report.C.verdicts
        in
        check_int "codeword upsets all masked" 8 (List.length masked);
        check_int "pipeline upsets all detected" 8 (List.length detected);
        List.iter
          (fun v ->
            check_bool (v.C.name ^ ": error_detected asserted") true
              (List.assoc "single" v.C.status);
            check_bool (v.C.name ^ ": not a double error") false
              (List.assoc "double" v.C.status))
          masked;
        let latencies =
          List.filter_map
            (fun v ->
              match v.C.classification with
              | C.Detected { latency; output; _ } ->
                (* divergence must surface on the unprotected copy *)
                check_bool (v.C.name ^ " via u output") true
                  (String.length output > 0 && output.[0] = 'u');
                Some latency
              | _ -> None)
            detected
        in
        (* stage-2 upsets show the same cycle, stage-1 one cycle later *)
        check_int_list "latencies 0 and 1, four each" [ 0; 0; 0; 0; 1; 1; 1; 1 ]
          (List.sort compare latencies));
    (* ---- CPU campaign against the golden execution ---- *)
    tc "campaign: program_stimulus reproduces run_structural's halt cycle"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let module Driver = Hydra_cpu.Driver in
        let program =
          Asm.assemble
            "  ldval R1,3[R0]\n\
            \  ldval R2,4[R0]\n\
            \  add R3,R1,R2\n\
            \  store R3,result[R0]\n\
            \  halt\n\
             result: data 0\n"
        in
        let res = Driver.run_structural ~mem_bits:6 program in
        check_bool "reference run halts" true res.Driver.halted;
        let stimulus, cycles =
          Driver.program_stimulus ~mem_bits:6 ~max_cycles:200 program
        in
        let nl = Driver.system_netlist ~mem_bits:6 () in
        let sim = W.create ~optimize:false ~relayout:false ~fuse:false nl in
        let first_halt = ref (-1) in
        List.iteri
          (fun cycle _ ->
            if !first_halt < 0 && cycle < cycles then begin
              List.iter
                (fun (port, bits) ->
                  Slab.set_input_bool sim port
                    (match List.nth_opt bits cycle with
                    | Some b -> b
                    | None -> false))
                stimulus;
              W.settle sim;
              if Slab.output_lane sim "halted" 0 then first_halt := cycle;
              W.tick sim
            end)
          (List.init cycles Fun.id);
        check_int "halt cycle = run_structural cycles + program length"
          (res.Driver.cycles + List.length program)
          !first_halt);
    tc "campaign: CPU SEUs — pc upset detected, cold memory cell latent"
      (fun () ->
        let module Asm = Hydra_cpu.Asm in
        let module Driver = Hydra_cpu.Driver in
        let program =
          Asm.assemble
            "  ldval R1,0[R0]\n\
             loop: ldval R2,1[R0]\n\
            \  add R1,R1,R2\n\
            \  cmpeq R3,R1,R0\n\
            \  jumpf R3,loop2[R0]\n\
             loop2: cmpeq R3,R1,R0\n\
            \  halt\n"
        in
        let len = List.length program in
        let res = Driver.run_structural ~mem_bits:6 program in
        check_bool "golden halts" true res.Driver.halted;
        let stimulus, cycles =
          Driver.program_stimulus ~mem_bits:6 ~max_cycles:100 program
        in
        let nl = Driver.system_netlist ~mem_bits:6 () in
        (* inject while the program is executing *)
        let at_cycle = len + 2 in
        check_bool "injection before halt" true
          (at_cycle < len + res.Driver.cycles);
        (* the dff driving the pc0 outport is a pc register bit *)
        let pc0 = nl.N.fanin.(List.assoc "pc0" nl.N.outputs).(0) in
        check_bool "pc0 is dff-driven"
          (match nl.N.components.(pc0) with N.Dffc _ -> true | _ -> false)
          true;
        let faults = [ C.Seu { site = pc0; at_cycle } ] in
        let report = C.run nl ~faults ~stimulus ~cycles in
        (match (List.hd report.C.verdicts).C.classification with
        | C.Detected { latency; output; _ } ->
          check_int "pc divergence is immediate" 0 latency;
          check_string "seen on the pc outputs" "pc0" output
        | c ->
          Alcotest.fail ("pc upset should be detected, got " ^ C.class_string c));
        (* memory cells beyond the program are loaded by nothing, read by
           nothing: an upset there persists silently *)
        let sample_dffs =
          (* the structural RAM dominates the dff population; sample a
             spread and require some latent verdicts *)
          let all = Array.of_list (C.dff_sites nl) in
          List.init 24 (fun i ->
              C.Seu
                {
                  site = all.(Array.length all - 1 - (i * 7));
                  at_cycle;
                })
        in
        let r2 = C.run nl ~faults:sample_dffs ~stimulus ~cycles in
        check_bool "some upsets stay latent" true (r2.C.latent > 0));
    (* ---- renderers ---- *)
    tc "campaign: JSON report shape is pinned" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("y", G.dff x) ] in
        let faults =
          [ C.Stuck_at { site = 1; value = true }; C.Seu { site = 1; at_cycle = 1 } ]
        in
        let stimulus = [ ("x", [ false; false; true ]) ] in
        let report = C.run nl ~faults ~stimulus ~cycles:3 in
        check_string "json"
          "{\"version\":1,\"total\":2,\"detected\":2,\"latent\":0,\"masked\":0,\"cycles\":3,\"verdicts\":[{\"name\":\"dff#1 stuck-at-1\",\"model\":\"stuck_at\",\"site\":1,\"value\":1,\"class\":\"detected\",\"latency\":0,\"cycle\":0,\"output\":\"y\"},{\"name\":\"dff#1 seu@1\",\"model\":\"seu\",\"site\":1,\"at_cycle\":1,\"class\":\"detected\",\"latency\":0,\"cycle\":1,\"output\":\"y\"}]}"
          (C.to_json report);
        check_string "summary"
          "fault campaign: 2 faults over 3 cycles: 2 detected (100.0%), 0 \
           latent, 0 masked"
          (C.summary_string report));
    tc "campaign: run validates fault descriptors" (fun () ->
        let nl = fig1 () in
        Alcotest.check_raises "seu on a gate"
          (Invalid_argument "Campaign.run: SEU site 1 is not a dff") (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Seu { site = 1; at_cycle = 0 } ]
                 ~stimulus:[] ~cycles:1));
        Alcotest.check_raises "rate out of range"
          (Invalid_argument "Campaign.run: intermittent rate outside [0,1]")
          (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Intermittent { site = 1; rate = 1.5; seed = 0 } ]
                 ~stimulus:[] ~cycles:1));
        Alcotest.check_raises "unknown stimulus port"
          (Invalid_argument "Campaign.run: stimulus for unknown input zz")
          (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Stuck_at { site = 1; value = true } ]
                 ~stimulus:[ ("zz", [ true ]) ]
                 ~cycles:1)));
    (* ---- the slab-backed campaign: more than 61 faults per pass ---- *)
    tc "campaign: slab engine verdicts = wide engine verdicts" (fun () ->
        let nl = secded () in
        let stimulus = C.random_stimulus ~seed:11 ~cycles:24 nl in
        (* a mixed fault list well past one wide chunk: every stuck-at,
           every SEU, and a few intermittents *)
        let faults =
          C.all_stuck_at nl
          @ C.all_seu ~at_cycle:3 nl
          @ List.map
              (fun (site, seed) -> C.Intermittent { site; rate = 0.4; seed })
              [ (1, 7); (3, 8); (5, 9) ]
        in
        check_bool "more than one wide chunk" true (List.length faults > 61);
        let wide =
          C.run ~status_outputs:[ "single"; "double" ] nl ~faults ~stimulus
            ~cycles:24
        in
        List.iter
          (fun k ->
            let slab =
              C.run ~engine:(`Slab k)
                ~status_outputs:[ "single"; "double" ] nl ~faults ~stimulus
                ~cycles:24
            in
            check_int (Printf.sprintf "k=%d detected" k) wide.C.detected
              slab.C.detected;
            check_bool
              (Printf.sprintf "k=%d verdicts bit-identical" k)
              true
              (wide.C.verdicts = slab.C.verdicts))
          [ 1; 2; 4 ];
        (* cluster gating composes with the campaign's forces: same
           verdicts, bit for bit *)
        let gated =
          C.run ~engine:(`Slab 2) ~gating:true
            ~status_outputs:[ "single"; "double" ] nl ~faults ~stimulus
            ~cycles:24
        in
        check_bool "gated verdicts bit-identical" true
          (wide.C.verdicts = gated.C.verdicts);
        (* k=4 fits the whole list in a single engine pass *)
        check_bool "fits one slab pass" true (List.length faults <= (62 * 4) - 1));
    tc "campaign: slab engine option validation" (fun () ->
        let nl = fig1 () in
        let faults = [ C.Stuck_at { site = 1; value = true } ] in
        Alcotest.check_raises "k < 1"
          (Invalid_argument "Campaign.run: slab k must be >= 1") (fun () ->
            ignore (C.run ~engine:(`Slab 0) nl ~faults ~stimulus:[] ~cycles:1));
        Alcotest.check_raises "gating on wide"
          (Invalid_argument "Campaign.run: ?gating requires ~engine:(`Slab k)")
          (fun () ->
            ignore (C.run ~gating:true nl ~faults ~stimulus:[] ~cycles:1));
        (* a shared scheduler serves a `Slab 2 campaign like a private
           one *)
        let sch = Scheduler.create ~domains:1 () in
        Fun.protect
          ~finally:(fun () -> Scheduler.shutdown sch)
          (fun () ->
            let faults = C.all_stuck_at nl in
            let stimulus = C.random_stimulus ~seed:4 ~cycles:6 nl in
            check_bool "scheduler k=2 = fresh k=2" true
              ((C.run ~scheduler:sch ~engine:(`Slab 2) nl ~faults ~stimulus
                  ~cycles:6).C.verdicts
              = (C.run ~engine:(`Slab 2) nl ~faults ~stimulus ~cycles:6).C.verdicts)));
    (* ---- fault dropping and lane compaction ---- *)
    qc ~count:100
      "campaign: dropping and compaction match an independent reference"
      QCheck2.Gen.(
        quad Test_analyze.gen_nodes (int_bound 1000) (int_bound 6)
          (int_range 2 12))
      (fun (nodes, seed, flavor, cycles) ->
        (* a trailing dff keeps every generated circuit sequential *)
        let nl =
          Test_analyze.random_netlist (nodes @ [ (Test_analyze.Rdff, seed, 0) ])
        in
        let st = Random.State.make [| seed |] in
        let sites =
          Array.of_list
            (List.filter
               (fun i ->
                 match nl.N.components.(i) with N.Outport _ -> false | _ -> true)
               (List.init (N.size nl) Fun.id))
        in
        let dffs = C.dff_sites nl in
        let dffa = Array.of_list dffs in
        let pick a = a.(Random.State.int st (Array.length a)) in
        let mixed =
          C.all_stuck_at nl
          @ List.init 20 (fun _ ->
                C.Seu { site = pick dffa; at_cycle = Random.State.int st (cycles + 1) })
          @ List.init 8 (fun i ->
                C.Intermittent { site = pick sites; rate = 0.5; seed = seed + i })
        in
        (* repeated, so the list spans several wide chunks *)
        let mixed = mixed @ mixed in
        (* every dff upset at every cycle, injection-cycle-major and
           repeated past two k=4 chunks: later chunks start from the
           golden prefix at their first upset *)
        let sweep =
          List.concat_map
            (fun at_cycle -> List.map (fun site -> C.Seu { site; at_cycle }) dffs)
            (List.init (cycles + 1) Fun.id)
        in
        let reps = 1 + (500 / List.length sweep) in
        let sweep = List.concat_map (fun f -> List.init reps (fun _ -> f)) sweep in
        (* each input holds its value from a random cycle on (to the end
           of the window when that cycle is [cycles]), so fixed points
           are reached part-way through *)
        let stimulus =
          List.map
            (fun (name, bits) ->
              let a = Array.of_list bits and hold = Random.State.int st (cycles + 1) in
              (name, List.init cycles (fun c -> a.(min c hold))))
            (C.random_stimulus ~seed ~cycles nl)
        in
        let engine, gating =
          [| (`Wide, false); (`Slab 1, false); (`Slab 1, true); (`Slab 2, false);
             (`Slab 2, true); (`Slab 4, false); (`Slab 4, true) |].(flavor)
        in
        List.for_all
          (fun faults ->
            matches_reference (C.run ~engine ~gating nl ~faults ~stimulus ~cycles))
          [ mixed; sweep ]);
    (* ---- early resolution: one regression per soundness edge ---- *)
    tc "campaign: a fixed-point lane waits while the golden lane still moves"
      (fun () ->
        (* a 2-bit counter counts while the self-holding [stop] register
           is 0, and y reads count = 3.  Upsetting [stop] at cycle 0
           freezes the lane's counter: the lane latches nothing from then
           on, but the golden lane is still counting toward the read that
           exposes the upset at cycle 3 *)
        let stop = G.feedback (fun q -> G.dff q) in
        let run = G.inv stop in
        let c0 = G.feedback (fun q -> G.dff (G.xor2 q run)) in
        let c1 = G.feedback (fun q -> G.dff (G.xor2 q (G.and2 c0 run))) in
        let nl = N.of_graph ~outputs:[ ("y", G.and2 c1 c0) ] in
        let stop_site =
          List.find (fun d -> nl.N.fanin.(d).(0) = d) (C.dff_sites nl)
        in
        let fault = C.Seu { site = stop_site; at_cycle = 0 } in
        List.iter
          (fun (engine, gating) ->
            let r = C.run ~engine ~gating nl ~faults:[ fault ] ~stimulus:[] ~cycles:6 in
            check_bool "detected at cycle 3" true
              ((List.hd r.C.verdicts).C.classification
              = C.Detected { latency = 3; cycle = 3; output = "y" }))
          [ (`Wide, false); (`Slab 2, true) ]);
    tc "campaign: a late input pulse after a constant stretch still detects"
      (fun () ->
        (* the upset self-holding register is read only while x is high:
           x is low for cycles 0-7, pulses at 8, and is low again at 9 *)
        let x = G.input "x" in
        let r = G.feedback (fun q -> G.dff q) in
        let nl = N.of_graph ~outputs:[ ("y", G.and2 x r) ] in
        let fault = C.Seu { site = List.hd (C.dff_sites nl); at_cycle = 1 } in
        let stimulus = [ ("x", List.init 10 (fun c -> c = 8)) ] in
        List.iter
          (fun (engine, gating) ->
            let r = C.run ~engine ~gating nl ~faults:[ fault ] ~stimulus ~cycles:10 in
            check_bool "detected by the pulse" true
              ((List.hd r.C.verdicts).C.classification
              = C.Detected { latency = 7; cycle = 8; output = "y" }))
          [ (`Wide, false); (`Slab 2, true) ]);
    tc "campaign: an SEU overwritten next cycle resolves masked and stops"
      (fun () ->
        (* d reloads from a toggling input every cycle and nothing reads
           it: an upset at cycle 2 is gone after that cycle's tick, so the
           chunk (after a 2-cycle golden prefix) stops at once *)
        let x = G.input "x" in
        let d = G.dff x in
        let nl = N.of_graph ~outputs:[ ("y", G.or2 x (G.and2 d G.zero)) ] in
        let fault = C.Seu { site = List.hd (C.dff_sites nl); at_cycle = 2 } in
        let stimulus = [ ("x", List.init 10 (fun c -> c mod 2 = 1)) ] in
        List.iter
          (fun (engine, gating) ->
            let r = C.run ~engine ~gating nl ~faults:[ fault ] ~stimulus ~cycles:10 in
            check_string "masked" "masked"
              (C.class_string (List.hd r.C.verdicts).C.classification);
            check_int "prefix 2 + one chunk cycle" 3 r.C.chunk_cycles)
          [ (`Wide, false); (`Slab 1, true); (`Slab 2, false) ]);
    tc "campaign: a stuck constant is judged by the dffs alone" (fun () ->
        (* y = x whatever the constants do.  zero stuck-at-1 sets the
           unread register r: latent.  one stuck-at-0 changes only the
           constant's own word: masked, as at the end of the window *)
        let x = G.input "x" in
        let r = G.feedback (fun q -> G.dff (G.or2 q G.zero)) in
        let nl =
          N.of_graph ~outputs:[ ("y", G.or2 x (G.and2 x (G.and2 r G.one))) ]
        in
        let const b =
          List.find
            (fun i -> nl.N.components.(i) = N.Constant b)
            (List.init (N.size nl) Fun.id)
        in
        let sa1_zero = C.Stuck_at { site = const false; value = true } in
        let sa0_one = C.Stuck_at { site = const true; value = false } in
        let stimulus = [ ("x", List.init 8 (fun _ -> false)) ] in
        List.iter
          (fun (engine, gating) ->
            let r =
              C.run ~engine ~gating nl ~faults:[ sa1_zero; sa0_one ] ~stimulus
                ~cycles:8
            in
            check_bool "zero stuck-at-1 latent" true
              (classification_of r sa1_zero = C.Latent);
            check_bool "one stuck-at-0 masked" true
              (classification_of r sa0_one = C.Masked);
            check_bool "matches the reference" true (matches_reference r);
            check_bool "resolved before the end of the window" true
              (r.C.chunk_cycles < 8))
          [ (`Wide, false); (`Slab 1, true); (`Slab 2, false) ]);
    tc "campaign: intermittent lanes are never resolved early" (fun () ->
        (* x is held low and nothing latches, so every lane sits at a
           fixed point from cycle 0 — yet each coin stream flips the and
           gate (and y) at some later cycle *)
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("y", G.and2 x x) ] in
        let gate =
          List.find (fun i -> nl.N.components.(i) = N.And2c) (List.init (N.size nl) Fun.id)
        in
        let faults =
          List.init 40 (fun seed -> C.Intermittent { site = gate; rate = 0.5; seed })
        in
        let stimulus = [ ("x", List.init 16 (fun _ -> false)) ] in
        List.iter
          (fun (engine, gating) ->
            let r = C.run ~engine ~gating nl ~faults ~stimulus ~cycles:16 in
            let cycles =
              List.map
                (fun v ->
                  match v.C.classification with
                  | C.Detected { cycle; _ } -> cycle
                  | c -> Alcotest.fail ("intermittent lane " ^ C.class_string c))
                r.C.verdicts
            in
            check_bool "some first flips come late" true
              (List.exists (fun c -> c >= 2) cycles))
          [ (`Wide, false); (`Slab 1, true) ]);
    tc "campaign: negative SEU cycles are rejected" (fun () ->
        let nl = two_stage () in
        Alcotest.check_raises "at_cycle -5"
          (Invalid_argument "Campaign.run: SEU at cycle -5 is before cycle 0")
          (fun () ->
            ignore
              (C.run nl
                 ~faults:[ C.Seu { site = List.hd (C.dff_sites nl); at_cycle = -5 } ]
                 ~stimulus:[] ~cycles:4));
        Alcotest.check_raises "cycles -3"
          (Invalid_argument "Campaign.run: ~cycles -3 is negative")
          (fun () -> ignore (C.run nl ~faults:[] ~stimulus:[] ~cycles:(-3))));
    tc "campaign: gated SEU on a dff with a quiet driver re-latches" (fun () ->
        (* x never changes, so a gated tick latches d only if the upset
           itself marked d's cluster dirty; unread, the healed upset is
           masked on every engine *)
        let x = G.input "x" in
        let d = G.dff x in
        let nl = N.of_graph ~outputs:[ ("y", G.or2 x (G.and2 d G.zero)) ] in
        let faults = [ C.Seu { site = List.hd (C.dff_sites nl); at_cycle = 2 } ] in
        let stimulus = [ ("x", [ false; false; false; false ]) ] in
        List.iter
          (fun (engine, gating) ->
            let r = C.run ~engine ~gating nl ~faults ~stimulus ~cycles:4 in
            check_string "masked" "masked"
              (C.class_string (List.hd r.C.verdicts).C.classification))
          [ (`Wide, false); (`Slab 1, false); (`Slab 1, true); (`Slab 2, true) ]);
    tc "campaign: word and chunk boundaries under compaction (k=2)" (fun () ->
        let nl = wallace4 () in
        let all = Array.of_list (C.all_stuck_at nl) in
        check_bool "at least 124 faults" true (Array.length all >= 124);
        let stimulus = C.random_stimulus ~seed:5 ~cycles:8 nl in
        (* 61/62 straddle slab word 0 -> 1, 123/124 the one-chunk limit *)
        List.iter
          (fun count ->
            let faults = Array.to_list (Array.sub all 0 count) in
            let r = C.run ~engine:(`Slab 2) nl ~faults ~stimulus ~cycles:8 in
            check_bool (Printf.sprintf "%d faults match replay" count) true
              (matches_replay r))
          [ 61; 62; 123; 124 ]);
    tc "campaign: intermittent flips on a constant survive compaction" (fun () ->
        (* nothing re-drives a constant, so its flips accumulate: the
           constant's state must migrate with the lane *)
        let nl = ripple 8 in
        let const =
          List.find
            (fun i -> match nl.N.components.(i) with N.Constant _ -> true | _ -> false)
            (List.init (N.size nl) Fun.id)
        in
        let stimulus = C.random_stimulus ~seed:3 ~cycles:16 nl in
        let faults =
          C.all_stuck_at nl
          @ List.init 4 (fun s -> C.Intermittent { site = const; rate = 0.5; seed = s })
        in
        let r = C.run ~engine:(`Slab 1) nl ~faults ~stimulus ~cycles:16 in
        check_bool "verdicts match replay" true (matches_replay r));
    tc "campaign: status outputs keep every lane to the end of the window"
      (fun () ->
        (* y shows a stuck-at-1 on the and gate at once; [late] asserts
           three cycles later on the same lane, so a dropping chunk would
           miss it *)
        let x = G.input "x" in
        let y = G.and2 x x in
        let nl =
          N.of_graph ~outputs:[ ("y", y); ("late", G.dff (G.dff (G.dff y))) ]
        in
        let gate =
          List.find
            (fun i -> nl.N.components.(i) = N.And2c)
            (List.init (N.size nl) Fun.id)
        in
        let fault = C.Stuck_at { site = gate; value = true } in
        let r =
          C.run ~engine:(`Slab 2) ~status_outputs:[ "late" ] nl
            ~faults:(List.init 100 (fun _ -> fault))
            ~stimulus:[ ("x", List.init 6 (fun _ -> false)) ]
            ~cycles:6
        in
        List.iter
          (fun v ->
            check_bool "detected at cycle 0" true
              (v.C.classification
              = C.Detected { latency = 0; cycle = 0; output = "y" });
            check_bool "late flag sampled after detection" true
              (List.assoc "late" v.C.status))
          r.C.verdicts;
        check_bool "matches replay" true (C.replay r fault = List.hd r.C.verdicts));
    tc "campaign: retry + chaos through compaction is bit-identical" (fun () ->
        let nl = wallace4 () in
        let faults = C.all_stuck_at nl in
        let stimulus = C.random_stimulus ~seed:8 ~cycles:8 nl in
        let run ?scheduler ?retry ?chaos () =
          C.run ?scheduler ?retry ?chaos ~engine:(`Slab 1) nl ~faults ~stimulus
            ~cycles:8
        in
        let clean = run () in
        (* a zero delay at every chunk attempt counts the chunks run: more
           than round 0's proves later rounds ran on compacted survivors *)
        let counter =
          Chaos.plan ~seed:1 ~delay_rate:1.0 ~exn_rate:0.0 ~max_delay:0.0 ()
        in
        ignore (run ~chaos:counter ());
        let round0 = (List.length faults + 60) / 61 in
        check_bool "later rounds ran" true
          ((Chaos.injected counter).Chaos.delays > round0);
        let retry =
          Hydra_engine.Resilience.retry ~max_attempts:8 ~base_delay:0.0005 ()
        in
        let storm seed =
          Chaos.plan ~seed ~delay_rate:0.1 ~exn_rate:0.3 ~max_delay:0.001 ()
        in
        let direct = run ~retry ~chaos:(storm 11) () in
        check_bool "direct retries bit-identical" true
          (clean.C.verdicts = direct.C.verdicts);
        let sch = Hydra_engine.Scheduler.create ~domains:2 () in
        let scheduled =
          Fun.protect
            ~finally:(fun () -> Hydra_engine.Scheduler.shutdown sch)
            (fun () -> run ~scheduler:sch ~retry ~chaos:(storm 12) ())
        in
        check_bool "scheduler retries bit-identical" true
          (clean.C.verdicts = scheduled.C.verdicts));
    tc "campaign: to_json is the header plus every verdict_to_json" (fun () ->
        let nl = ripple 8 in
        let stimulus = C.random_stimulus ~seed:4 ~cycles:6 nl in
        let r =
          C.run nl
            ~faults:(C.all_stuck_at nl @ C.all_stuck_at nl)
            ~stimulus ~cycles:6
        in
        check_bool "several chunks" true (r.C.total > 61);
        check_string "json"
          (Printf.sprintf
             "{\"version\":1,\"total\":%d,\"detected\":%d,\"latent\":%d,\"masked\":%d,\"cycles\":%d,\"verdicts\":[%s]}"
             r.C.total r.C.detected r.C.latent r.C.masked r.C.cycles
             (String.concat "," (List.map C.verdict_to_json r.C.verdicts)))
          (C.to_json r);
        check_string "text"
          (String.concat "\n"
             (C.summary_string r
             :: List.map (fun v -> "  " ^ C.verdict_to_string v) r.C.verdicts))
          (C.to_string r));
  ]
