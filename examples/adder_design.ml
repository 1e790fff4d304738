(* Adder design study: from the paper's ripple-carry pattern to the
   logarithmic carry-lookahead adders of O'Donnell & Ruenger [23].

   Shows the intended Hydra workflow: write the circuit once, then
   - prove design variants equivalent (BDD semantics),
   - compare their timing (Depth semantics),
   - inspect their structure (netlist statistics),
   - and simulate the favourite (compiled engine).

   Run with: dune exec examples/adder_design.exe *)

module P = Hydra_core.Patterns
module D = Hydra_core.Depth
module G = Hydra_core.Graph
module Bitvec = Hydra_core.Bitvec
module N = Hydra_netlist.Netlist
module L = Hydra_netlist.Levelize
module Equiv = Hydra_verify.Equiv
module Compiled = Hydra_scalar.Compiled

type variant = Ripple | Cla of P.prefix_network

let variant_name = function
  | Ripple -> "ripple"
  | Cla net -> "cla/" ^ P.prefix_network_name net

let all_variants = Ripple :: List.map (fun n -> Cla n) P.all_prefix_networks

(* the generic circuit: 2n inputs (xs then ys), n+1 outputs (cout :: sums) *)
let adder ~n variant =
  {
    Equiv.apply =
      (fun (type a) (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
        let module A = Hydra_circuits.Arith.Make (C) in
        let xs, ys = P.split_at n v in
        let cout, sums =
          match variant with
          | Ripple -> A.ripple_add C.zero (List.combine xs ys)
          | Cla net -> A.cla_add ~network:net C.zero (List.combine xs ys)
        in
        cout :: sums);
  }

let netlist_of ~n variant =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let outs = (adder ~n variant).Equiv.apply (module G) (xs @ ys) in
  N.of_graph
    ~outputs:(List.mapi (fun i o -> (Printf.sprintf "o%d" i, o)) outs)

let () =
  let n = 16 in
  Printf.printf "Adder design study at width %d\n\n" n;

  print_endline "1. Equivalence: every variant implements addition";
  List.iter
    (fun v ->
      let r = Equiv.bdd_equiv ~inputs:(2 * n) (adder ~n Ripple) (adder ~n v) in
      Printf.printf "   ripple = %-14s : %s\n" (variant_name v)
        (if Equiv.is_equivalent r then "proved (BDD)" else "COUNTEREXAMPLE"))
    all_variants;

  print_endline "\n2. Timing and size (Depth semantics)";
  Printf.printf "   %-14s %-8s %-8s\n" "variant" "depth" "gates";
  List.iter
    (fun v ->
      let module A = Hydra_circuits.Arith.Make (D) in
      D.reset ();
      let outs =
        (adder ~n v).Equiv.apply
          (module D)
          (List.init (2 * n) (fun _ -> D.input))
      in
      let r = D.report outs in
      Printf.printf "   %-14s %-8d %-8d\n" (variant_name v) r.D.critical_path
        r.D.gates)
    all_variants;

  print_endline "\n3. Netlist cross-check (levelized critical path)";
  List.iter
    (fun v ->
      let nl = netlist_of ~n v in
      Printf.printf "   %-14s levelized depth %d, %s\n" (variant_name v)
        (L.critical_path nl)
        (Hydra_netlist.Formats.stats_string nl))
    all_variants;

  print_endline "\n4. Simulate the winner on a few vectors (compiled engine)";
  let nl = netlist_of ~n (Cla P.Kogge_stone) in
  let sim = Compiled.create nl in
  List.iter
    (fun (x, y) ->
      List.iteri
        (fun i b -> Compiled.set_input sim (Printf.sprintf "x%d" i) b)
        (Bitvec.of_int ~width:n x);
      List.iteri
        (fun i b -> Compiled.set_input sim (Printf.sprintf "y%d" i) b)
        (Bitvec.of_int ~width:n y);
      Compiled.settle sim;
      let out_bits =
        List.init (n + 1) (fun i -> Compiled.output sim (Printf.sprintf "o%d" i))
      in
      Printf.printf "   %5d + %5d = %6d\n" x y (Bitvec.to_int out_bits))
    [ (1, 2); (1000, 2000); (65535, 1); (12345, 54321) ]
