(* Tests for the netlist simulation engines: interpreted, compiled,
   parallel and event-driven — checked against each other and against the
   stream semantics on random circuits (the one-specification,
   many-semantics guarantee of the paper, enforced empirically). *)

open Util
module S = Hydra_core.Stream_sim
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Compiled = Hydra_scalar.Compiled
module Interp = Hydra_scalar.Interp
module Parallel_sim = Hydra_scalar.Parallel_sim
module Event = Hydra_scalar.Event
module Vcd = Hydra_scalar.Vcd

(* A random synchronous circuit described abstractly: node i is
   (op, src1, src2) where sources index into inputs @ earlier nodes. *)
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
  (* outputs: the last few nodes *)
  let arr = !pool in
  let n = Array.length arr in
  List.init (min 4 n) (fun i -> arr.(n - 1 - i))

let gen_nodes =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (triple
         (oneofl [ Rinv; Rand; Ror; Rxor; Rdff ])
         (int_bound 1000) (int_bound 1000)))

let gen_case =
  QCheck2.Gen.(
    triple gen_nodes
      (list_size (return 12) (list_size (return 3) bool)) (* input rows *)
      unit)

let stream_reference nodes rows =
  S.simulate ~inputs:(Bitvec.columns rows) ~cycles:(List.length rows)
    (fun ins -> build (module S) ~inputs:ins nodes)

let netlist_of nodes =
  let a = G.input "a" and b = G.input "b" and c = G.input "c" in
  let outs = build (module G) ~inputs:[ a; b; c ] nodes in
  N.extract ~inputs:[ a; b; c ]
    ~outputs:(List.mapi (fun i o -> (Printf.sprintf "o%d" i, o)) outs)

let engine_rows run nodes rows =
  let nl = netlist_of nodes in
  let cols = Bitvec.columns rows in
  let inputs =
    List.map2 (fun n vs -> (n, vs)) [ "a"; "b"; "c" ] cols
  in
  run nl ~inputs ~cycles:(List.length rows)

let shared_pool = lazy (Hydra_parallel.Pool.create ~domains:4 ())

let suite =
  [
    (* basic compiled-engine behaviour *)
    tc "compiled: fig1 truth table" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl = N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ] in
        let sim = Compiled.create nl in
        List.iter
          (fun (va, vb, expect) ->
            Compiled.set_input sim "a" va;
            Compiled.set_input sim "b" vb;
            Compiled.settle sim;
            check_bool "x" expect (Compiled.output sim "x"))
          [ (false, false, false); (false, true, true);
            (true, false, false); (true, true, false) ]);
    tc "compiled: dff latches on tick" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff x) ] in
        let sim = Compiled.create nl in
        let rows =
          Compiled.run sim ~inputs:[ ("x", [ true; false; true ]) ] ~cycles:3
        in
        Alcotest.(check (list (list (pair string bool))))
          "trace"
          [ [ ("q", false) ]; [ ("q", true) ]; [ ("q", false) ] ]
          rows);
    tc "compiled: unknown port raises" (fun () ->
        let nl = N.of_graph ~outputs:[ ("x", G.inv (G.input "a")) ] in
        let sim = Compiled.create nl in
        Alcotest.check_raises "in" (Invalid_argument "Compiled.set_input: unknown input z")
          (fun () -> Compiled.set_input sim "z" true);
        Alcotest.check_raises "out" (Invalid_argument "Compiled.output: unknown output z")
          (fun () -> ignore (Compiled.output sim "z")));
    tc "compiled: reset restores power-up state" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff_init true x) ] in
        let sim = Compiled.create nl in
        Compiled.set_input sim "x" false;
        Compiled.step sim;
        Compiled.settle sim;
        check_bool "after step" false (Compiled.output sim "q");
        Compiled.reset sim;
        Compiled.settle sim;
        check_bool "after reset" true (Compiled.output sim "q"));
    tc "compiled: rejects combinational cycles" (fun () ->
        let out = G.feedback (fun s -> G.and2 s (G.input "a")) in
        let nl = N.of_graph ~outputs:[ ("x", out) ] in
        match Compiled.create nl with
        | _ -> Alcotest.fail "expected Combinational_cycle"
        | exception Hydra_netlist.Levelize.Combinational_cycle _ -> ());
    (* cross-engine agreement on random circuits *)
    qc ~count:60 "compiled = stream semantics" gen_case
      (fun (nodes, rows, ()) ->
        stream_reference nodes rows
        = List.map (List.map snd) (engine_rows Compiled.(fun nl -> run (create nl)) nodes rows));
    qc ~count:60 "interp = stream semantics" gen_case
      (fun (nodes, rows, ()) ->
        stream_reference nodes rows
        = List.map (List.map snd) (engine_rows Interp.(fun nl -> run (create nl)) nodes rows));
    qc ~count:30 "parallel = stream semantics" gen_case
      (fun (nodes, rows, ()) ->
        let run nl ~inputs ~cycles =
          let sim = Parallel_sim.create ~pool:(Lazy.force shared_pool) nl in
          Parallel_sim.run sim ~inputs ~cycles
        in
        stream_reference nodes rows
        = List.map (List.map snd) (engine_rows run nodes rows));
    qc ~count:20 "spmd (2 domains) = stream semantics" gen_case
      (fun (nodes, rows, ()) ->
        let run nl ~inputs ~cycles =
          let sim = Hydra_scalar.Spmd.create ~domains:2 nl in
          let out = Hydra_scalar.Spmd.run sim ~inputs ~cycles in
          Hydra_scalar.Spmd.shutdown sim;
          out
        in
        stream_reference nodes rows
        = List.map (List.map snd) (engine_rows run nodes rows));
    tc "spmd single domain runs inline" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff x) ] in
        let sim = Hydra_scalar.Spmd.create ~domains:1 nl in
        let rows =
          Hydra_scalar.Spmd.run sim ~inputs:[ ("x", [ true; false ]) ] ~cycles:2
        in
        Hydra_scalar.Spmd.shutdown sim;
        Alcotest.(check (list (list (pair string bool))))
          "trace"
          [ [ ("q", false) ]; [ ("q", true) ] ]
          rows);
    qc ~count:60 "event-driven settles to stream semantics" gen_case
      (fun (nodes, rows, ()) ->
        let run nl ~inputs ~cycles =
          let sim = Event.create nl in
          List.init cycles (fun c ->
              List.iter
                (fun (name, vals) ->
                  Event.set_input sim name
                    (match List.nth_opt vals c with Some b -> b | None -> false))
                inputs;
              ignore (Event.step sim);
              Event.outputs sim)
        in
        stream_reference nodes rows
        = List.map (List.map snd) (engine_rows run nodes rows));
    (* event-driven timing properties *)
    tc "event: settle time bounded by critical path" (fun () ->
        let nodes =
          [ (Rxor, 0, 1); (Rand, 2, 3); (Ror, 3, 4); (Rxor, 4, 5); (Rand, 5, 6) ]
        in
        let nl = netlist_of nodes in
        let cp = Hydra_netlist.Levelize.critical_path nl in
        let sim = Event.create nl in
        Event.set_input sim "a" true;
        Event.set_input sim "b" false;
        Event.set_input sim "c" true;
        let r = Event.step sim in
        check_bool "settle <= cp" true (r.Event.settle_time <= cp));
    tc "event: xor glitch is observable" (fun () ->
        (* x -> inv -> and(x, inv x): a static-hazard circuit; after x
           falls the and can pulse.  With unit delays: and sees (x=0,
           invx stale 0) then invx rises -> recompute.  We only assert
           the machinery counts transitions. *)
        let a = G.input "a" in
        let slow = G.inv (G.inv (G.inv a)) in
        let nl = N.of_graph ~outputs:[ ("y", G.and2 a slow) ] in
        let sim = Event.create nl in
        Event.set_input sim "a" false;
        ignore (Event.step sim);
        Event.set_input sim "a" true;
        let r = Event.step sim in
        (* y must end 0 (a=1, slow=inv a=0) but pulses high transiently *)
        check_bool "final 0" false (Event.output sim "y");
        check_bool "glitched" true (r.Event.glitches >= 1));
    (* VCD *)
    tc "vcd: header and changes recorded" (fun () ->
        let x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("q", G.dff x) ] in
        let sim = Compiled.create nl in
        let vcd =
          Vcd.of_compiled_run sim
            ~inputs:[ ("x", [ true; false; true ]) ]
            ~cycles:3
        in
        let s = Vcd.contents vcd in
        let contains needle =
          let nlen = String.length needle and hlen = String.length s in
          let rec go i = i + nlen <= hlen && (String.sub s i nlen = needle || go (i + 1)) in
          go 0
        in
        check_bool "enddefinitions" true (contains "$enddefinitions");
        check_bool "var q" true (contains " q $end");
        check_bool "time 0" true (contains "#0");
        check_bool "time 1" true (contains "#1"));
  ]
