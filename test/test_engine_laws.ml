(* A shared law battery over every simulation engine: the scalar
   {!Compiled}, the 62-lane {!Compiled_wide} view and the K-word {!Slab} in
   all its flavors — k from 1 to 5 and 8, and the ignored [~gating] flag — are all driven through
   one lane-level adapter, so each law — poke/peek round-trip,
   reset-to-power-up, settle idempotence, step determinism across
   replicas, force/clear — is checked once and holds
   engine-independently. *)

open Util

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module P = Hydra_core.Packed
module C = Hydra_scalar.Compiled
module W = Hydra_engine.Compiled_wide
module Slab = Hydra_engine.Slab
module Kernel = Hydra_engine.Kernel

(* The lane-level face the laws are written against.  [poke_lane] and
   [peek_lane] address one lane of one component by the caller's index
   (the force law names raw sites, so an engine with forces compiles
   without the index-changing passes); [set_force] stuck-forces a site
   on every lane.  Engines without runtime forces say so via
   [has_forces]. *)
module type LANE_ENGINE = sig
  type t

  val name : string
  val create : N.t -> t
  val lanes : t -> int
  val reset : t -> unit
  val set_input_lane : t -> string -> int -> bool -> unit
  val settle : t -> unit
  val step : t -> unit
  val output_lane : t -> string -> int -> bool
  val peek_lane : t -> int -> int -> bool
  val poke_lane : t -> int -> int -> bool -> unit
  val cycle : t -> int
  val has_forces : bool
  val set_force : t -> site:int -> value:bool -> unit
  val clear_forces : t -> unit
end

module Scalar_adapter : LANE_ENGINE = struct
  type t = C.t

  let name = "compiled"
  let create nl = C.create ~optimize:false nl
  let lanes _ = 1
  let reset = C.reset
  let set_input_lane t n _ v = C.set_input t n v
  let settle = C.settle
  let step = C.step
  let output_lane t n _ = C.output t n
  let peek_lane t i _ = C.peek t i
  let poke_lane t i _ v = C.poke t i v
  let cycle = C.cycle
  let has_forces = false
  let set_force _ ~site:_ ~value:_ = ()
  let clear_forces _ = ()
end

module Wide_adapter : LANE_ENGINE = struct
  type t = W.t

  let name = "wide"
  let create nl = slab_of ~k:1 ~relayout:false ~fuse:false nl
  let lanes _ = W.lanes
  let set_input_lane = Slab.set_input_lane
  let reset = W.reset
  let settle = W.settle
  let step = W.step
  let output_lane t n l = P.lane (W.output t n) l
  let peek_lane t i l = P.lane (Slab.peek t i) l
  let poke_lane t i l v = Slab.poke t i (P.set_lane (Slab.peek t i) l v)
  let cycle = Slab.cycle
  let has_forces = true

  let set_force t ~site ~value =
    Slab.set_forces t
      [|
        {
          Slab.f_site = site;
          force0 = [| (if value then 0 else P.lane_mask) |];
          force1 = [| (if value then P.lane_mask else 0) |];
          flip = [| 0 |];
        };
      |]

  let clear_forces = Slab.clear_forces
end

(* [gating] builds through [Slab.create ~gating:true], which ignores the
   flag (bench workloads still pass it) and compiles with the default
   flags: re-laid-out, so the caller's component [i] is the engine's
   [perm.(i)], and fused, so it takes no force.  Such a flavor must obey
   every other law like any other. *)
module Slab_adapter (K : sig
  val k : int
  val gating : bool
end) : LANE_ENGINE = struct
  type t = { s : Slab.t; perm : int array }

  let name = Printf.sprintf "slab(k=%d%s)" K.k (if K.gating then ",gated" else "")

  let create nl =
    if K.gating then
      {
        s = Slab.create ~k:K.k ~gating:true nl;
        perm = snd (Hydra_netlist.Layout.rank_major_permutation nl);
      }
    else
      {
        s = slab_of ~k:K.k ~relayout:false ~fuse:false nl;
        perm = Array.init (N.size nl) Fun.id;
      }

  let lanes t = Slab.lanes t.s
  let reset t = Slab.reset t.s
  let set_input_lane t = Slab.set_input_lane t.s
  let settle t = Slab.settle t.s
  let step t = Slab.step t.s
  let output_lane t = Slab.output_lane t.s

  let peek_lane t i l =
    P.lane (Slab.peek_word t.s t.perm.(i) (l / P.lanes)) (l mod P.lanes)

  let poke_lane t i l v =
    let i = t.perm.(i) and w = l / P.lanes in
    Slab.poke_word t.s i w (P.set_lane (Slab.peek_word t.s i w) (l mod P.lanes) v)

  let cycle t = Slab.cycle t.s

  let has_forces = not K.gating

  let set_force t ~site ~value =
    Slab.set_forces t.s
      [|
        {
          Slab.f_site = site;
          force0 = Array.make K.k (if value then 0 else P.lane_mask);
          force1 = Array.make K.k (if value then P.lane_mask else 0);
          flip = Array.make K.k 0;
        };
      |]

  let clear_forces t = Slab.clear_forces t.s
end

module Slab1_adapter = Slab_adapter (struct
  let k = 1
  let gating = false
end)

module Slab2_adapter = Slab_adapter (struct
  let k = 2
  let gating = false
end)

(* k = 3: the tail-only word loop *)
module Slab3_adapter = Slab_adapter (struct
  let k = 3
  let gating = false
end)

module Slab4_adapter = Slab_adapter (struct
  let k = 4
  let gating = false
end)

module Slab4g_adapter = Slab_adapter (struct
  let k = 4
  let gating = true
end)

(* k = 5: one AVX2 vector body plus a one-word tail per gate *)
module Slab5_adapter = Slab_adapter (struct
  let k = 5
  let gating = false
end)

(* k = 8: two AVX2 vector bodies and no tail *)
module Slab8_adapter = Slab_adapter (struct
  let k = 8
  let gating = false
end)

(* Circuits the laws run on: a combinational mixer and a registered
   accumulator, both with raw gate sites to force. *)

let comb_nl () =
  let a = G.input "a" and b = G.input "b" and c = G.input "c" in
  N.of_graph
    ~outputs:
      [
        ("x", G.xor2 (G.and2 a b) (G.or2 b (G.inv c)));
        ("y", G.or2 (G.xor2 a c) (G.and2 (G.inv a) b));
      ]

let seq_nl () =
  let a = G.input "a" and b = G.input "b" in
  let d1 = G.dff (G.xor2 a b) in
  let d2 = G.dff (G.or2 d1 (G.and2 a (G.inv b))) in
  N.of_graph ~outputs:[ ("q", G.xor2 d1 d2); ("r", G.and2 d1 (G.inv d2)) ]

let in_names nl = List.map fst nl.N.inputs
let out_names nl = List.map fst nl.N.outputs

(* Drive pseudo-random per-lane stimulus for [cycles] cycles and return
   every output's per-lane stream; the stimulus depends only on [seed]
   and lane/cycle/input indices, never on the engine. *)
module Drive (E : LANE_ENGINE) = struct
  let stim seed cyc j l = (seed * 0x9e3779b9) + (cyc * 131) + (j * 17) + l

  let run sim nl ~seed ~cycles =
    let ins = in_names nl and outs = out_names nl in
    let lanes = E.lanes sim in
    let trace = ref [] in
    for cyc = 0 to cycles - 1 do
      List.iteri
        (fun j name ->
          for l = 0 to lanes - 1 do
            E.set_input_lane sim name l (stim seed cyc j l land 8 <> 0)
          done)
        ins;
      E.settle sim;
      trace :=
        List.map
          (fun name -> List.init lanes (fun l -> E.output_lane sim name l))
          outs
        :: !trace;
      E.step sim
    done;
    List.rev !trace
end

module Laws (E : LANE_ENGINE) = struct
  module D = Drive (E)

  let what law = Printf.sprintf "%s: %s" E.name law

  let poke_peek_roundtrip () =
    let nl = comb_nl () in
    let sim = E.create nl in
    let lanes = E.lanes sim in
    for i = 0 to N.size nl - 1 do
      for l = 0 to lanes - 1 do
        let v = (i + l) land 1 = 0 in
        E.poke_lane sim i l v;
        check_bool (what "poke/peek round-trip") v (E.peek_lane sim i l)
      done
    done

  let reset_is_power_up () =
    let nl = seq_nl () in
    let sim = E.create nl in
    let t1 = D.run sim nl ~seed:1 ~cycles:9 in
    E.reset sim;
    check_int (what "cycle 0 after reset") 0 (E.cycle sim);
    let t2 = D.run sim nl ~seed:1 ~cycles:9 in
    check_bool (what "reset replays power-up") true (t1 = t2)

  let settle_idempotent () =
    let nl = comb_nl () in
    let sim = E.create nl in
    let lanes = E.lanes sim in
    List.iteri
      (fun j name ->
        for l = 0 to lanes - 1 do
          E.set_input_lane sim name l ((j + l) land 3 = 1)
        done)
      (in_names nl);
    E.settle sim;
    let snap1 =
      List.map
        (fun n -> List.init lanes (E.output_lane sim n))
        (out_names nl)
    in
    E.settle sim;
    E.settle sim;
    let snap2 =
      List.map
        (fun n -> List.init lanes (E.output_lane sim n))
        (out_names nl)
    in
    check_bool (what "settle idempotent") true (snap1 = snap2)

  let step_deterministic () =
    let nl = seq_nl () in
    let s1 = E.create nl and s2 = E.create nl in
    let t1 = D.run s1 nl ~seed:7 ~cycles:11 in
    let t2 = D.run s2 nl ~seed:7 ~cycles:11 in
    check_bool (what "two instances agree") true (t1 = t2)

  let force_then_clear () =
    if E.has_forces then begin
      let nl = comb_nl () in
      let sim = E.create nl in
      let lanes = E.lanes sim in
      let drive () =
        List.iteri
          (fun j name ->
            for l = 0 to lanes - 1 do
              E.set_input_lane sim name l ((j + (5 * l)) land 5 <> 0)
            done)
          (in_names nl)
      in
      drive ();
      E.settle sim;
      let free =
        List.map (fun n -> List.init lanes (E.output_lane sim n)) (out_names nl)
      in
      (* force every gate site to 1 in turn: the site must read forced on
         every lane after settle *)
      Array.iteri
        (fun i comp ->
          match comp with
          | N.Invc | N.And2c | N.Or2c | N.Xor2c ->
            E.set_force sim ~site:i ~value:true;
            E.settle sim;
            for l = 0 to lanes - 1 do
              check_bool (what "forced site reads forced") true
                (E.peek_lane sim i l)
            done
          | _ -> ())
        nl.N.components;
      E.clear_forces sim;
      drive ();
      E.settle sim;
      let cleared =
        List.map (fun n -> List.init lanes (E.output_lane sim n)) (out_names nl)
      in
      check_bool (what "clear_forces restores free outputs") true (free = cleared)
    end

  let tests =
    [
      tc (E.name ^ ": poke/peek round-trip") poke_peek_roundtrip;
      tc (E.name ^ ": reset is power-up") reset_is_power_up;
      tc (E.name ^ ": settle idempotent") settle_idempotent;
      tc (E.name ^ ": step deterministic") step_deterministic;
      tc (E.name ^ ": force then clear") force_then_clear;
    ]
end

(* Cross-engine agreement: the same law-battery stimulus must produce
   lane-0 output streams that agree across all engines (the scalar
   engine is the reference). *)
let cross_engine_lane0 () =
  let nl = seq_nl () in
  let run (module E : LANE_ENGINE) =
    let module D = Drive (E) in
    let sim = E.create nl in
    (* restrict to lane 0: drive other lanes identically so broadcast
       engines still agree lane-by-lane *)
    List.map (fun row -> List.map (fun lanes -> List.hd lanes) row)
      (D.run sim nl ~seed:3 ~cycles:13)
  in
  let reference = run (module Scalar_adapter) in
  List.iter
    (fun ((module E : LANE_ENGINE) as e) ->
      check_bool ("lane 0 agrees: " ^ E.name) true (run e = reference))
    [
      (module Wide_adapter : LANE_ENGINE);
      (module Slab2_adapter);
      (module Slab3_adapter);
      (module Slab4g_adapter);
      (module Slab5_adapter);
      (module Slab8_adapter);
    ]

module Scalar_laws = Laws (Scalar_adapter)
module Wide_laws = Laws (Wide_adapter)
module Slab1_laws = Laws (Slab1_adapter)
module Slab2_laws = Laws (Slab2_adapter)
module Slab3_laws = Laws (Slab3_adapter)
module Slab4_laws = Laws (Slab4_adapter)
module Slab4g_laws = Laws (Slab4g_adapter)
module Slab5_laws = Laws (Slab5_adapter)
module Slab8_laws = Laws (Slab8_adapter)

let suite =
  Scalar_laws.tests @ Wide_laws.tests @ Slab1_laws.tests @ Slab2_laws.tests
  @ Slab3_laws.tests @ Slab4_laws.tests @ Slab4g_laws.tests @ Slab5_laws.tests
  @ Slab8_laws.tests
  @ [ tc "lane 0 agrees across engines" cross_engine_lane0 ]
