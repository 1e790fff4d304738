(* Tests for Hydra_analyze: one deliberately-broken fixture per lint
   rule (each rule must fire exactly there and stay quiet on the clean
   catalogue), the Certify translation-validator (certifies the real
   Optimize/rank_major runs on the full CPU system netlist, refutes a
   seeded wrong rewrite with a concrete counterexample), the Levelize
   witness rework, Netlist.validate / Serial fail-fast, and the pinned
   `hydra lint --json` diagnostic shape. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module Serial = Hydra_netlist.Serial
module Layout = Hydra_netlist.Layout
module T = Hydra_core.Ternary
module D = Hydra_analyze.Diagnostic
module Lint = Hydra_analyze.Lint
module Certify = Hydra_analyze.Certify
module Sim = Hydra_analyze.Sim

(* Hand-built netlist records: the broken fixtures cannot come from the
   extraction pipeline precisely because extraction never produces them. *)
let mk ?inputs ?outputs components fanin =
  let infer_inputs () =
    let acc = ref [] in
    Array.iteri
      (fun i c -> match c with N.Inport s -> acc := (s, i) :: !acc | _ -> ())
      components;
    List.rev !acc
  in
  let infer_outputs () =
    let acc = ref [] in
    Array.iteri
      (fun i c -> match c with N.Outport s -> acc := (s, i) :: !acc | _ -> ())
      components;
    List.rev !acc
  in
  {
    N.components;
    fanin;
    names = Array.make (Array.length components) [];
    inputs = (match inputs with Some l -> l | None -> infer_inputs ());
    outputs = (match outputs with Some l -> l | None -> infer_outputs ());
  }

let rules_fired ?config nl =
  List.sort_uniq compare
    (List.map (fun d -> d.D.rule) (Lint.run ?config nl))

let find_rule rule ds = List.find (fun d -> d.D.rule = rule) ds

(* Fixtures ------------------------------------------------------------- *)

(* and2#1 and inv#2 form a combinational loop *)
let fx_cycle =
  mk
    [| N.Inport "a"; N.And2c; N.Invc; N.Outport "x" |]
    [| [||]; [| 0; 2 |]; [| 1 |]; [| 1 |] |]

(* fanin index 5 of 3 components *)
let fx_dangling =
  mk
    [| N.Inport "a"; N.And2c; N.Outport "x" |]
    [| [||]; [| 0; 5 |]; [| 1 |] |]

(* input b drives nothing *)
let fx_floating =
  mk
    [| N.Inport "a"; N.Inport "b"; N.Outport "x" |]
    [| [||]; [||]; [| 0 |] |]

(* inv#1 reaches no output *)
let fx_dead =
  mk
    [| N.Inport "a"; N.Invc; N.Outport "x" |]
    [| [||]; [| 0 |]; [| 0 |] |]

(* and2#2 has a constant-0 leg *)
let fx_const_gate =
  mk
    [| N.Inport "a"; N.Constant false; N.And2c; N.Outport "x" |]
    [| [||]; [||]; [| 0; 1 |]; [| 2 |] |]

(* dff#1 reloads const1 forever *)
let fx_const_dff =
  mk
    [| N.Constant true; N.Dffc false; N.Outport "q" |]
    [| [||]; [| 0 |]; [| 1 |] |]

(* dff#0 holds itself: its power-up X escapes to output q forever *)
let fx_uninit =
  mk [| N.Dffc false; N.Outport "q" |] [| [| 0 |]; [| 0 |] |]

(* input a fans out to 3 inverters (threshold 2 in the test) *)
let fx_hotspot =
  mk
    [| N.Inport "a"; N.Invc; N.Invc; N.Invc;
       N.Outport "x"; N.Outport "y"; N.Outport "z" |]
    [| [||]; [| 0 |]; [| 0 |]; [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |] |]

(* the timing_glitch example's circuit: a 12-bit ripple adder, whose
   linear carry chain is exactly what a path budget exists to catch *)
let ripple_netlist n =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let module A = Hydra_circuits.Arith.Make (G) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout)
      :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let mux1_netlist () =
  let c = G.input "c" and x = G.input "x" and y = G.input "y" in
  let module M = Hydra_circuits.Mux.Make (G) in
  N.of_graph ~outputs:[ ("out", M.mux1 c x y) ]

(* Random synchronous circuits (same scheme as Test_wide). *)
type rop = Rinv | Rand | Ror | Rxor | Rdff

let build_random (type s)
    (module X : Hydra_core.Signal_intf.CLOCKED with type t = s)
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

let gen_nodes =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (triple
         (oneofl [ Rinv; Rand; Ror; Rxor; Rdff ])
         (int_bound 1000) (int_bound 1000)))

let random_netlist nodes =
  let a = G.input "a" and b = G.input "b" and c = G.input "c" in
  let outs = build_random (module G) ~inputs:[ a; b; c ] nodes in
  N.extract ~inputs:[ a; b; c ]
    ~outputs:(List.mapi (fun i o -> (Printf.sprintf "o%d" i, o)) outs)

(* ----------------------------------------------------------------------- *)

let suite =
  [
    (* --- lint fixtures: each rule fires exactly on its fixture --- *)
    tc "comb-cycle fires with an ordered witness" (fun () ->
        let ds = Lint.run fx_cycle in
        let d = find_rule "comb-cycle" ds in
        check_bool "error" true (D.is_error d);
        (* 1 and 2 form the cycle; outport 3 is downstream and also
           unleveled *)
        check_int_list "cyclic components" [ 1; 2; 3 ] d.D.components;
        (* the witness path is closed: first label repeated at the end *)
        check_bool "closed witness" true
          (List.length d.D.witness >= 2
          && List.hd d.D.witness = List.nth d.D.witness (List.length d.D.witness - 1));
        check_bool "no other rules" true
          (List.for_all
             (fun d -> d.D.rule = "comb-cycle" || d.D.severity <> D.Error)
             ds));
    tc "cycle_witness is a real directed cycle" (fun () ->
        let lv = Levelize.compute fx_cycle in
        match Levelize.cycle_witness fx_cycle lv with
        | None -> Alcotest.fail "expected a witness"
        | Some cyc ->
          check_int "cycle length" 2 (List.length cyc);
          (* each element drives the next, the last drives the first *)
          let drives a b =
            Array.exists (fun d -> d = a) fx_cycle.N.fanin.(b)
          in
          let rec ok = function
            | a :: (b :: _ as rest) -> drives a b && ok rest
            | [ last ] -> drives last (List.hd cyc)
            | [] -> false
          in
          check_bool "edges" true (ok cyc);
          check_bool "starts at min" true
            (List.hd cyc = List.fold_left min max_int cyc));
    tc "cyclic is sorted ascending" (fun () ->
        let lv = Levelize.compute fx_cycle in
        check_bool "sorted" true
          (lv.Levelize.cyclic = List.sort compare lv.Levelize.cyclic));
    tc "invalid netlist short-circuits the registry" (fun () ->
        check_bool "validate fails" true
          (match N.validate fx_dangling with Error _ -> true | Ok () -> false);
        match Lint.run fx_dangling with
        | [ d ] ->
          check_string "rule" "invalid-netlist" d.D.rule;
          check_bool "error" true (D.is_error d)
        | ds ->
          Alcotest.failf "expected exactly invalid-netlist, got %d diags"
            (List.length ds));
    tc "floating-input" (fun () ->
        let d = find_rule "floating-input" (Lint.run fx_floating) in
        check_int_list "components" [ 1 ] d.D.components;
        check_bool "mentions b" true
          (String.length d.D.message > 0
          && String.index_opt d.D.message 'b' <> None));
    tc "dead-logic" (fun () ->
        let d = find_rule "dead-logic" (Lint.run fx_dead) in
        check_int_list "components" [ 1 ] d.D.components);
    tc "const-gate" (fun () ->
        let d = find_rule "const-gate" (Lint.run fx_const_gate) in
        check_int_list "components" [ 2 ] d.D.components);
    tc "const-dff fires, uninit-state does not" (fun () ->
        let fired = rules_fired fx_const_dff in
        check_bool "const-dff" true (List.mem "const-dff" fired);
        check_bool "no uninit-state" false (List.mem "uninit-state" fired));
    tc "uninit-state" (fun () ->
        let d = find_rule "uninit-state" (Lint.run fx_uninit) in
        check_int_list "escaped outputs" [ 1 ] d.D.components;
        check_bool "witness names the dff" true
          (List.exists
             (fun w -> String.length w >= 3 && String.sub w 0 3 = "dff")
             d.D.witness));
    tc "fanout-hotspot (configured threshold)" (fun () ->
        let config = { Lint.default_config with Lint.fanout_threshold = 2 } in
        let d = find_rule "fanout-hotspot" (Lint.run ~config fx_hotspot) in
        check_int_list "components" [ 0 ] d.D.components;
        check_bool "quiet at default threshold" false
          (List.mem "fanout-hotspot" (rules_fired fx_hotspot)));
    tc "path-budget on the timing_glitch adder" (fun () ->
        let nl = ripple_netlist 12 in
        let config = { Lint.default_config with Lint.path_budget = Some 8 } in
        let d = find_rule "path-budget" (Lint.run ~config nl) in
        check_bool "error" true (D.is_error d);
        (* witness is a real path one longer than the critical depth *)
        check_int "witness length" (Levelize.critical_path nl + 1)
          (List.length d.D.witness);
        let generous =
          { Lint.default_config with Lint.path_budget = Some 100 }
        in
        check_bool "inside budget is quiet" false
          (List.mem "path-budget" (rules_fired ~config:generous nl)));
    tc "rule registry lists every rule" (fun () ->
        check_int "registry size" 11 (List.length Lint.rule_names));
    tc "lint output is deterministically ordered" (fun () ->
        (* stable sort by (rule, components): the same netlist must
           produce byte-identical diagnostic lists run-to-run, and the
           list must actually be sorted by the pinned key *)
        let nl = ripple_netlist 12 in
        let config = { Lint.default_config with Lint.path_budget = Some 8 } in
        let ds1 = Lint.run ~config nl and ds2 = Lint.run ~config nl in
        check_bool "identical across runs" true (ds1 = ds2);
        let key d = (d.D.rule, d.D.components) in
        let rec sorted = function
          | a :: (b :: _ as rest) -> key a <= key b && sorted rest
          | _ -> true
        in
        check_bool "sorted by rule then site" true (sorted ds1);
        check_bool "sorted on the broken fixtures too" true
          (List.for_all
             (fun nl -> sorted (Lint.run nl))
             [ fx_cycle; fx_floating; fx_dead; fx_const_gate; fx_uninit ]));
    (* --- catalogue hygiene: shipped circuits are error-clean --- *)
    tc "catalogue is lint-clean (no errors)" (fun () ->
        List.iter
          (fun (name, nl) ->
            let errors = D.count_errors (Lint.run nl) in
            if errors > 0 then
              Alcotest.failf "%s has %d error diagnostics" name errors)
          [
            ("mux1", mux1_netlist ());
            ("ripple:12", ripple_netlist 12);
            ("cpu-system", Hydra_cpu.Driver.system_netlist ~mem_bits:6 ());
          ]);
    (* --- Netlist.validate / Serial fail-fast --- *)
    tc "validate: arity and port mismatches" (fun () ->
        let bad_arity =
          mk [| N.Inport "a"; N.And2c; N.Outport "x" |]
            [| [||]; [| 0 |]; [| 1 |] |]
        in
        check_bool "arity" true
          (match N.validate bad_arity with Error _ -> true | Ok () -> false);
        let bad_port =
          mk
            ~inputs:[ ("b", 0) ]
            [| N.Inport "a"; N.Outport "x" |]
            [| [||]; [| 0 |] |]
        in
        check_bool "port" true
          (match N.validate bad_port with Error _ -> true | Ok () -> false);
        check_bool "clean circuit validates" true
          (N.validate (ripple_netlist 8) = Ok ()));
    tc "serial: outport-driven component fails fast" (fun () ->
        (* inv#2 reads the outport — the serializer happily emits it, the
           parser must reject it before any engine indexes with it *)
        let bad =
          mk
            [| N.Inport "a"; N.Outport "x"; N.Invc |]
            [| [||]; [| 0 |]; [| 1 |] |]
        in
        let text = Serial.to_string bad in
        match Serial.of_string text with
        | exception Serial.Parse_error { message; _ } ->
          check_bool "mentions invalid netlist" true
            (String.length message >= 15
            && String.sub message 0 15 = "invalid netlist")
        | _ -> Alcotest.fail "expected Parse_error");
    tc "describe labels" (fun () ->
        let nl = fx_const_gate in
        check_string "plain" "and2#2" (N.describe nl 2);
        let named = { nl with N.names = [| []; []; [ "g" ]; [] |] } in
        check_string "named" "and2#2(g)" (N.describe named 2));
    (* --- ternary reference evaluator --- *)
    tc "ternary_values: constants propagate, state is X" (fun () ->
        let v = Sim.ternary_values fx_const_gate in
        check_bool "and2 with const0 leg is known F" true (v.(2) = T.F);
        let vu = Sim.ternary_values fx_uninit in
        check_bool "self-holding dff stays X" true (vu.(0) = T.X);
        let vr = Sim.ternary_values ~respect_init:true fx_uninit in
        check_bool "respect_init makes it known" true (vr.(0) = T.F));
    (* --- Certify --- *)
    tc "certify: Optimize + rank_major on the CPU system netlist" (fun () ->
        let nl = Hydra_cpu.Driver.system_netlist ~mem_bits:6 () in
        let _opt, oc = Certify.optimize nl in
        check_bool "optimize certified" true (Certify.certified oc);
        let _laid, lc = Certify.rank_major nl in
        check_bool "rank_major certified" true (Certify.certified lc));
    tc "certify: refutes a seeded wrong rewrite with a counterexample"
      (fun () ->
        let pre = mux1_netlist () in
        (* the "optimizer" that turns one and2 into or2 *)
        let post =
          let components = Array.copy pre.N.components in
          let idx = ref (-1) in
          Array.iteri
            (fun i c -> if !idx < 0 && c = N.And2c then idx := i)
            components;
          components.(!idx) <- N.Or2c;
          { pre with N.components }
        in
        match Certify.check ~transform:"bad-rewrite" ~pre ~post () with
        | Certify.Certified _ -> Alcotest.fail "expected a refutation"
        | Certify.Refuted { failure = Certify.Behaviour_differs cex; _ } ->
          check_bool "names an output" true (cex.Certify.output <> "");
          check_int "stream count" 3 (List.length cex.Certify.inputs);
          List.iter
            (fun (_, bits) ->
              check_int "stream length" (cex.Certify.cycle + 1)
                (List.length bits))
            cex.Certify.inputs;
          (* replay the counterexample on the reference simulator: the
             two netlists must really disagree at the reported cycle *)
          let s1 = Sim.packed_create pre and s2 = Sim.packed_create post in
          for c = 0 to cex.Certify.cycle do
            List.iter
              (fun (name, bits) ->
                let w = if List.nth bits c then 1 else 0 in
                Sim.packed_set_input s1 name w;
                Sim.packed_set_input s2 name w)
              cex.Certify.inputs;
            Sim.packed_settle s1;
            Sim.packed_settle s2;
            if c < cex.Certify.cycle then begin
              Sim.packed_tick s1;
              Sim.packed_tick s2
            end
          done;
          check_bool "counterexample replays" false
            (Sim.packed_output s1 cex.Certify.output land 1
            = Sim.packed_output s2 cex.Certify.output land 1)
        | Certify.Refuted { failure; _ } ->
          Alcotest.failf "wrong failure: %s" (Certify.describe_failure failure));
    tc "certify: rejects a tampered permutation" (fun () ->
        let pre = ripple_netlist 8 in
        let post, perm = Layout.rank_major_permutation pre in
        let bad = Array.copy perm in
        let t = bad.(0) in
        bad.(0) <- bad.(1);
        bad.(1) <- t;
        check_bool "good perm certifies" true
          (Certify.certified
             (Certify.check_permutation ~transform:"t" ~pre ~post ~perm));
        check_bool "tampered perm refuted" false
          (Certify.certified
             (Certify.check_permutation ~transform:"t" ~pre ~post ~perm:bad)));
    tc "certify: port change is detected" (fun () ->
        let pre = mux1_netlist () in
        let post =
          {
            pre with
            N.outputs = List.map (fun (_, i) -> ("renamed", i)) pre.N.outputs;
          }
        in
        (* keep post self-consistent so validate passes *)
        let post =
          {
            post with
            N.components =
              Array.map
                (function N.Outport _ -> N.Outport "renamed" | c -> c)
                post.N.components;
          }
        in
        match Certify.check ~transform:"t" ~pre ~post () with
        | Certify.Refuted { failure = Certify.Ports_differ _; _ } -> ()
        | _ -> Alcotest.fail "expected Ports_differ");
    qc ~count:25 "certify: real Optimize runs certify on random circuits"
      gen_nodes
      (fun nodes ->
        let nl = random_netlist nodes in
        Certify.certified (snd (Certify.optimize ~passes:1 ~cycles:8 nl)));
    qc ~count:100 "ternary stepper = packed lane 0 under declared power-up"
      QCheck2.Gen.(pair gen_nodes (int_bound 0xfffffff))
      (fun (nodes, seed) ->
        (* random declared power-up values, binary inputs: the ternary
           stepper never sees X, so every output and dff must read the
           bit lane 0 of the independent packed simulator reads *)
        let nl = random_netlist nodes in
        let nl =
          {
            nl with
            N.components =
              Array.mapi
                (fun i c ->
                  match c with
                  | N.Dffc _ -> N.Dffc ((seed lsr (i mod 28)) land 1 = 1)
                  | c -> c)
                nl.N.components;
          }
        in
        let dffs =
          List.filter
            (fun i -> match nl.N.components.(i) with N.Dffc _ -> true | _ -> false)
            (List.init (N.size nl) Fun.id)
        in
        let t = Sim.ternary_create ~respect_init:true nl in
        let p = Sim.packed_create nl in
        let st = Random.State.make [| seed |] in
        let lane0 w = T.of_bool (w land 1 = 1) in
        List.for_all
          (fun _ ->
            List.iter
              (fun (name, _) ->
                let b = Random.State.bool st in
                Sim.ternary_set_input t name (T.of_bool b);
                Sim.packed_set_input p name (if b then 1 else 0))
              nl.N.inputs;
            Sim.packed_settle p;
            let agree =
              List.for_all
                (fun (name, _) ->
                  Sim.ternary_output t name = lane0 (Sim.packed_output p name))
                nl.N.outputs
              && List.for_all
                   (fun i -> Sim.ternary_value t i = lane0 (Sim.packed_value p i))
                   dffs
            in
            Sim.ternary_step t;
            Sim.packed_tick p;
            agree)
          (List.init 12 Fun.id));
    tc "engines: certified pre-passes compose with compile" (fun () ->
        let nl = ripple_netlist 8 in
        let opt, c1 = Certify.optimize nl in
        let post, c2 = Certify.rank_major opt in
        check_bool "optimize certified" true (Certify.certified c1);
        check_bool "rank_major certified" true (Certify.certified c2);
        let s = Hydra_engine.Slab.of_program (Hydra_engine.Kernel.compile post) in
        check_int "the engine runs the certified netlist" (N.size post)
          (N.size (Hydra_engine.Slab.netlist s)));
    tc "equiv: invalid generated netlist is reported as such" (fun () ->
        match
          Hydra_verify.Equiv.wide_random_netlists ~passes:1 ~cycles:2
            fx_dangling fx_dangling
        with
        | exception Invalid_argument m ->
          check_bool "names the defect" true
            (String.length m > 0
            && String.index_opt m '(' <> None)
        | _ -> Alcotest.fail "expected Invalid_argument");
    (* --- JSON contract --- *)
    tc "diagnostic JSON shape is pinned" (fun () ->
        let ds = Lint.run fx_const_gate in
        let d = find_rule "const-gate" ds in
        check_string "json"
          "{\"rule\":\"const-gate\",\"severity\":\"warning\",\"components\":[2],\"witness\":[\"and2#2\"],\"message\":\"1 gate(s) compute a constant regardless of inputs and state (run Optimize to fold them)\"}"
          (D.to_json d));
    tc "lint --json payload parses" (fun () ->
        (* same shape the CLI emits for one target *)
        let nl = ripple_netlist 12 in
        let config = { Lint.default_config with Lint.path_budget = Some 8 } in
        let payload =
          Printf.sprintf
            "{\"version\":1,\"results\":[{\"target\":%s,\"components\":%d,\"diagnostics\":%s,\"certificates\":[]}]}"
            (D.json_string "ripple:12") (N.size nl)
            (D.list_to_json (Lint.run ~config nl))
        in
        check_bool "parses" true (json_parses payload);
        check_bool "escaping survives a hostile message" true
          (json_parses
             (D.to_json
                {
                  D.rule = "r";
                  severity = D.Info;
                  components = [];
                  witness = [ "a\"b\\c" ];
                  message = "line1\nline2\ttab";
                })));
  ]
