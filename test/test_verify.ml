(* Tests for the BDD package, equivalence checking and bounded model
   checking (paper section 4.6). *)

open Util
module Bdd = Hydra_verify.Bdd
module Equiv = Hydra_verify.Equiv
module Bmc = Hydra_verify.Bmc
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module P = Patterns

(* Generic circuits for the equivalence tests. *)
let mux_def =
  {
    Equiv.apply =
      (fun (type a) (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
        match v with
        | [ c; x; y ] -> [ C.or2 (C.and2 (C.inv c) x) (C.and2 c y) ]
        | _ -> assert false);
  }

let mux_xor_def =
  {
    Equiv.apply =
      (fun (type a) (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
        match v with
        | [ c; x; y ] -> [ C.xor2 x (C.and2 c (C.xor2 x y)) ]
        | _ -> assert false);
  }

(* width-w adder circuits over 2w+1 inputs (cin :: xs :: ys) *)
let adder ~w build =
  {
    Equiv.apply =
      (fun (type a) (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
        let module A = Hydra_circuits.Arith.Make (C) in
        let cin = List.hd v in
        let xs, ys = P.split_at w (List.tl v) in
        let cout, sums =
          match build with
          | `Ripple -> A.ripple_add cin (List.combine xs ys)
          | `Ripple4 -> A.ripple_add4 cin (List.combine xs ys)
          | `Cla net -> A.cla_add ~network:net cin (List.combine xs ys)
        in
        cout :: sums);
  }

(* 3-bit counter netlist with enable input and count outputs, plus a
   [prop] output asserting count <> limit. *)
let counter_netlist ~limit =
  let en = G.input "en" in
  let module R = Hydra_circuits.Regs.Make (G) in
  let module A = Hydra_circuits.Arith.Make (G) in
  let module Gt = Hydra_circuits.Gates.Make (G) in
  let count = R.counter 3 en in
  let prop =
    G.inv (A.eqw count (Gt.wconst ~width:3 limit))
  in
  N.extract ~inputs:[ en ]
    ~outputs:
      (("prop", prop)
      :: List.mapi (fun i b -> (Printf.sprintf "c%d" i, b)) count)

(* The search [Bmc] ran before it moved to the packed simulator, kept as
   the reference for the port law: the scalar compiled engine, with the
   dffs restored by [poke], then drive, settle, observe, tick, and the
   next state read back by [peek].  Explores the product of [sims]
   breadth-first, driving every one with [nl]'s input names; [observe]
   may return a violation, which ends the search. *)
module Ref_bmc = struct
  module C = Hydra_scalar.Compiled

  let snapshot sim = Array.to_list (Array.map (C.peek sim) (C.dff_indices sim))
  let restore sim st = List.iteri (fun j b -> C.poke sim (C.dff_indices sim).(j) b) st

  let bfs ?(limit = max_int) ~depth ~observe sims nl =
    let names = List.map fst nl.N.inputs in
    let rows = Hydra_core.Bit.vectors (List.length names) in
    let seen = Hashtbl.create 64 and queue = Queue.create () in
    let start = List.map snapshot sims in
    Hashtbl.add seen start ();
    Queue.add (start, 0, []) queue;
    let truncated = ref false and found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let st, d, history = Queue.pop queue in
      if d < depth then
        List.iter
          (fun v ->
            if !found = None then begin
              List.iter2 restore sims st;
              List.iter
                (fun sim ->
                  List.iter2 (C.set_input sim) names v;
                  C.settle sim)
                sims;
              found := observe d (v :: history) sims;
              List.iter C.tick sims;
              let s' = List.map snapshot sims in
              if not (Hashtbl.mem seen s') then
                if Hashtbl.length seen >= limit then truncated := true
                else begin
                  Hashtbl.add seen s' ();
                  Queue.add (s', d + 1, v :: history) queue
                end
            end)
          rows
    done;
    ( Hashtbl.length seen,
      !truncated,
      match !found with None -> Bmc.Holds | Some v -> Bmc.Violated v )

  let violation d history outputs =
    Some { Bmc.depth = d; inputs = List.rev history; outputs }

  let reachable ?limit nl =
    let n, truncated, _ =
      bfs ?limit ~depth:max_int ~observe:(fun _ _ _ -> None) [ C.create nl ] nl
    in
    (n, truncated)

  let check ~property ~depth nl =
    let observe d history = function
      | [ sim ] when not (C.output sim property) ->
        violation d history (C.outputs sim)
      | _ -> None
    in
    let _, _, r = bfs ~depth ~observe [ C.create nl ] nl in
    r

  let equiv ~depth a b =
    let observe d history = function
      | [ sa; sb ] ->
        let oa = List.sort compare (C.outputs sa) in
        if oa <> List.sort compare (C.outputs sb) then violation d history oa
        else None
      | _ -> None
    in
    let _, _, r = bfs ~depth ~observe [ C.create a; C.create b ] a in
    r
end

(* Random sequential netlists over inputs a, b, c with at least one dff
   (the last node), small enough for exhaustive search. *)
let gen_bmc_netlist =
  QCheck2.Gen.(
    map
      (fun (nodes, s) ->
        Test_analyze.random_netlist (nodes @ [ (Test_analyze.Rdff, s, 0) ]))
      (pair
         (list_size (int_range 0 14)
            (triple
               (oneofl Test_analyze.[ Rinv; Rand; Ror; Rxor; Rdff ])
               (int_bound 1000) (int_bound 1000)))
         (int_bound 1000)))

let suite =
  [
    (* BDD basics *)
    tc "bdd: constants and vars" (fun () ->
        let m = Bdd.manager () in
        check_bool "t" true (Bdd.eval (fun _ -> false) Bdd.btrue);
        check_bool "f" false (Bdd.eval (fun _ -> false) Bdd.bfalse);
        let x = Bdd.var m 0 in
        check_bool "x@1" true (Bdd.eval (fun _ -> true) x);
        check_bool "x@0" false (Bdd.eval (fun _ -> false) x);
        check_bool "nvar" true (Bdd.eval (fun _ -> false) (Bdd.nvar m 0)));
    tc "bdd: canonicity (same function, same node)" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 0 and y = Bdd.var m 1 in
        let a = Bdd.bdd_xor m x y in
        let b =
          Bdd.bdd_or m
            (Bdd.bdd_and m x (Bdd.bdd_not m y))
            (Bdd.bdd_and m (Bdd.bdd_not m x) y)
        in
        check_bool "equal nodes" true (Bdd.equal a b));
    tc "bdd: complement and identity laws" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 3 in
        check_bool "x and not x = 0" true
          (Bdd.equal (Bdd.bdd_and m x (Bdd.bdd_not m x)) Bdd.bfalse);
        check_bool "x or not x = 1" true
          (Bdd.equal (Bdd.bdd_or m x (Bdd.bdd_not m x)) Bdd.btrue);
        check_bool "double negation" true
          (Bdd.equal (Bdd.bdd_not m (Bdd.bdd_not m x)) x);
        check_bool "ite(c,x,x) = x" true
          (Bdd.equal (Bdd.bdd_ite m (Bdd.var m 0) x x) x));
    qc "bdd: ops agree with bool ops on random formulas"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 30)
             (triple (int_bound 3) (int_bound 100) (int_bound 100)))
          (list_size (return 5) bool))
      (fun (ops, assign_l) ->
        let m = Bdd.manager () in
        let assign v = List.nth assign_l (v mod 5) in
        let stack_b = ref (List.init 5 (Bdd.var m)) in
        let stack_v = ref (List.map assign [ 0; 1; 2; 3; 4 ]) in
        List.iter
          (fun (op, i, j) ->
            let nb = List.length !stack_b in
            let pick s k = List.nth s (k mod nb) in
            let b1 = pick !stack_b i and b2 = pick !stack_b j in
            let v1 = pick !stack_v i and v2 = pick !stack_v j in
            let nb', nv' =
              match op with
              | 0 -> (Bdd.bdd_and m b1 b2, v1 && v2)
              | 1 -> (Bdd.bdd_or m b1 b2, v1 || v2)
              | 2 -> (Bdd.bdd_xor m b1 b2, v1 <> v2)
              | _ -> (Bdd.bdd_not m b1, not v1)
            in
            stack_b := nb' :: !stack_b;
            stack_v := nv' :: !stack_v)
          ops;
        Bdd.eval assign (List.hd !stack_b) = List.hd !stack_v);
    tc "bdd: sat_count" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 0 and y = Bdd.var m 1 in
        check_bool "x over 2 vars" true (Bdd.sat_count ~nvars:2 x = 2.0);
        check_bool "x and y" true
          (Bdd.sat_count ~nvars:2 (Bdd.bdd_and m x y) = 1.0);
        check_bool "x or y" true
          (Bdd.sat_count ~nvars:2 (Bdd.bdd_or m x y) = 3.0);
        check_bool "true over 4 vars" true
          (Bdd.sat_count ~nvars:4 Bdd.btrue = 16.0);
        check_bool "false" true (Bdd.sat_count ~nvars:4 Bdd.bfalse = 0.0));
    tc "bdd: support and size" (fun () ->
        let m = Bdd.manager () in
        let f =
          Bdd.bdd_and m (Bdd.var m 1)
            (Bdd.bdd_or m (Bdd.var m 3) (Bdd.var m 5))
        in
        check_int_list "support" [ 1; 3; 5 ] (Bdd.support f);
        check_bool "size > 0" true (Bdd.size f > 0));
    tc "bdd: any_sat finds a correct witness" (fun () ->
        let m = Bdd.manager () in
        let f = Bdd.bdd_and m (Bdd.var m 0) (Bdd.bdd_not m (Bdd.var m 1)) in
        (match Bdd.any_sat f with
        | Some assign ->
          let lookup v =
            match List.assoc_opt v assign with Some b -> b | None -> false
          in
          check_bool "witness satisfies" true (Bdd.eval lookup f)
        | None -> Alcotest.fail "expected sat");
        check_bool "unsat" true (Bdd.any_sat Bdd.bfalse = None));
    (* equivalence checking *)
    tc "equiv: two mux definitions proved equal (bdd/exhaustive/random)"
      (fun () ->
        check_bool "bdd" true
          (Equiv.is_equivalent (Equiv.bdd_equiv ~inputs:3 mux_def mux_xor_def));
        check_bool "exhaustive" true
          (Equiv.is_equivalent (Equiv.exhaustive ~inputs:3 mux_def mux_xor_def));
        check_bool "random" true
          (Equiv.is_equivalent (Equiv.random ~inputs:3 mux_def mux_xor_def)));
    tc "equiv: counterexample distinguishes inequivalent circuits" (fun () ->
        let c_and =
          {
            Equiv.apply =
              (fun (type a)
                (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
                [ C.and2 (List.nth v 0) (List.nth v 1) ]);
          }
        in
        let c_or =
          {
            Equiv.apply =
              (fun (type a)
                (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
                [ C.or2 (List.nth v 0) (List.nth v 1) ]);
          }
        in
        (match Equiv.bdd_equiv ~inputs:2 c_and c_or with
        | Equiv.Equivalent -> Alcotest.fail "expected counterexample"
        | Equiv.Inequivalent cex ->
          let f = c_and.Equiv.apply (module Bit) in
          let g = c_or.Equiv.apply (module Bit) in
          check_bool "distinguishes" true (f cex <> g cex));
        match Equiv.exhaustive ~inputs:2 c_and c_or with
        | Equiv.Equivalent -> Alcotest.fail "expected counterexample"
        | Equiv.Inequivalent _ -> ());
    tc "equiv: rippleAdd4 = mscanr ripple (BDD proof, E6)" (fun () ->
        check_bool "equal" true
          (Equiv.is_equivalent
             (Equiv.bdd_equiv ~inputs:9 (adder ~w:4 `Ripple4)
                (adder ~w:4 `Ripple))));
    tc "equiv: every CLA network = ripple (8 bits, BDD proof, E11)" (fun () ->
        List.iter
          (fun net ->
            check_bool (P.prefix_network_name net) true
              (Equiv.is_equivalent
                 (Equiv.bdd_equiv ~inputs:17 (adder ~w:8 `Ripple)
                    (adder ~w:8 (`Cla net)))))
          P.all_prefix_networks);
    tc "equiv: bdd_outputs exposes symbolic functions" (fun () ->
        let m, outs = Equiv.bdd_outputs ~inputs:3 mux_def in
        ignore m;
        match outs with
        | [ f ] ->
          (* mux is satisfied for exactly half of the 8 assignments *)
          check_bool "sat count 4" true (Bdd.sat_count ~nvars:3 f = 4.0)
        | _ -> Alcotest.fail "one output expected");
    (* bounded model checking *)
    tc "bmc: count 7 unreachable within 5 cycles" (fun () ->
        (* the counter gains at most 1 per cycle, so count = 7 needs at
           least 7 cycles; within depth 5 the invariant holds *)
        match Bmc.check ~property:"prop" ~depth:5 (counter_netlist ~limit:7) with
        | Bmc.Holds -> ()
        | Bmc.Violated _ -> Alcotest.fail "unreachable this early");
    tc "bmc: violation found at the right depth" (fun () ->
        (* free-running: count=2 is first reached after 2 ticks; with the
           enable input the earliest violation is depth 2 *)
        match Bmc.check ~property:"prop" ~depth:4 (counter_netlist ~limit:2) with
        | Bmc.Holds -> Alcotest.fail "expected violation"
        | Bmc.Violated v ->
          check_int "earliest depth" 2 v.Bmc.depth);
    tc "bmc: invariant holds within depth" (fun () ->
        (* count cannot reach 5 in 3 steps from 0 *)
        match Bmc.check ~property:"prop" ~depth:3 (counter_netlist ~limit:5) with
        | Bmc.Holds -> ()
        | Bmc.Violated _ -> Alcotest.fail "unreachable this early");
    tc "bmc: reachable state count of a 3-bit counter" (fun () ->
        let count, truncated = Bmc.reachable_states (counter_netlist ~limit:7) in
        check_bool "not truncated" false truncated;
        check_int "8 states" 8 count);
    tc "bmc: sequential equivalence of two counter implementations"
      (fun () ->
        let a = counter_netlist ~limit:7 in
        let b =
          (* same circuit, rebuilt: independent graph, same behaviour *)
          counter_netlist ~limit:7
        in
        match Bmc.equiv_sequential ~depth:6 a b with
        | Bmc.Holds -> ()
        | Bmc.Violated _ -> Alcotest.fail "identical machines must agree");
    tc "bmc: sequential difference detected" (fun () ->
        let a = counter_netlist ~limit:7 in
        let b = counter_netlist ~limit:3 in
        match Bmc.equiv_sequential ~depth:6 a b with
        | Bmc.Holds -> Alcotest.fail "props differ"
        | Bmc.Violated v -> check_bool "depth sane" true (v.Bmc.depth <= 3));
    tc "bmc: an unknown property is rejected at any depth" (fun () ->
        List.iter
          (fun depth ->
            Alcotest.check_raises "unknown output"
              (Invalid_argument "Bmc.check: unknown output nope") (fun () ->
                ignore
                  (Bmc.check ~property:"nope" ~depth (counter_netlist ~limit:7))))
          [ 0; 3 ]);
    tc "bmc: a negative depth is rejected" (fun () ->
        let nl = counter_netlist ~limit:7 in
        Alcotest.check_raises "check" (Invalid_argument "Bmc.check: negative depth -3")
          (fun () -> ignore (Bmc.check ~property:"prop" ~depth:(-3) nl));
        Alcotest.check_raises "equiv_sequential"
          (Invalid_argument "Bmc.equiv_sequential: negative depth -1") (fun () ->
            ignore (Bmc.equiv_sequential ~depth:(-1) nl nl)));
    tc "bmc: equiv_sequential rejects different output ports" (fun () ->
        let named o =
          let a = G.input "a" in
          N.of_graph ~outputs:[ (o, G.dff (G.inv a)) ]
        in
        Alcotest.check_raises "renamed output"
          (Invalid_argument "Bmc.equiv_sequential: different output ports")
          (fun () -> ignore (Bmc.equiv_sequential ~depth:2 (named "x") (named "y"))));
    qc ~count:100 "bmc: packed search = compiled reference search" gen_bmc_netlist
      (fun nl ->
        let full = Ref_bmc.reachable nl in
        let cut = max 1 (fst full / 2) in
        Bmc.reachable_states nl = full
        && Bmc.reachable_states ~limit:cut nl = Ref_bmc.reachable ~limit:cut nl
        && List.for_all
             (fun (property, _) ->
               Bmc.check ~property ~depth:4 nl
               = Ref_bmc.check ~property ~depth:4 nl)
             nl.N.outputs
        &&
        let opt = Hydra_netlist.Optimize.optimize nl in
        Bmc.equiv_sequential ~depth:4 nl opt = Ref_bmc.equiv ~depth:4 nl opt);
  ]
