(* Layer breakdown on fixed circuits: each layer of the build -> optimize
   -> compile -> simulate path timed on its own, as the median of many
   calls, so a later change to one layer shows here even when the
   workloads blend it with everything else. *)

module N = Hydra_netlist.Netlist
module C = Hydra_verify.Campaign
module Kernel = Hydra_engine.Kernel
module Slab = Hydra_engine.Slab
module Wide = Hydra_engine.Compiled_wide
module Scheduler = Hydra_engine.Scheduler

let circuits = [ ("wallace:64", "wallace64"); ("cpu:8", "cpu8") ]

let k = 4

(* Layers in report order, with the unit each is reported in. *)
let layers =
  [ ("build", "ms"); ("digest", "ms"); ("optimize", "ms"); ("sweep", "ms"); ("levelize", "ms");
    ("layout", "ms"); ("compile", "ms"); ("cache_hit", "us"); ("settle", "us"); ("tick", "us");
    ("settle_gated_idle", "us"); ("wide_step", "us"); ("dispatch", "us"); ("render", "ms") ]

let metric_name label layer unit_ = Printf.sprintf "breakdown.%s.%s_%s" label layer unit_

(* Median seconds of [calls] runs of [f], each after an untimed
   [before]. *)
let sample ?(before = ignore) calls f =
  Stats.median
    (Array.init calls (fun _ ->
         before ();
         snd (Stats.time f)))

let set_random_inputs st set nl words =
  List.iter
    (fun (name, _) -> for w = 0 to words - 1 do set name w (Hydra_core.Packed.random_word st) done)
    nl.N.inputs

(* [(metric, value, unit)] rows, metrics named
   [breakdown.<circuit>.<layer>_<unit>].  [calls] runs per whole-circuit
   layer, [kernel_calls] per kernel-sized one. *)
let run ?(circuits = circuits) ~calls ~kernel_calls ~domains () =
  let st = Random.State.make [| 0xb4 |] in
  List.concat_map
    (fun (name, label) ->
      let nl = Circuits.build name in
      let build = sample calls (fun () -> Circuits.build name) in
      (* digest is memoized per netlist value: hash a fresh copy each time *)
      let copy = ref nl in
      let digest =
        sample ~before:(fun () -> copy := { nl with N.names = nl.N.names }) calls (fun () -> N.digest !copy)
      in
      let optimize = sample calls (fun () -> Hydra_netlist.Optimize.optimize nl) in
      let sweep = sample calls (fun () -> Hydra_analyze.Sweep.run nl) in
      let levelize = sample calls (fun () -> Hydra_netlist.Levelize.compute nl) in
      let layout = sample calls (fun () -> Hydra_netlist.Layout.rank_major nl) in
      let compile = sample calls (fun () -> Kernel.compile ~k nl) in
      let cache = Hydra_engine.Cache.create () in
      ignore (Hydra_engine.Cache.compile cache ~k nl);
      let cache_hit = sample kernel_calls (fun () -> Hydra_engine.Cache.compile cache ~k nl) in
      let slab = Slab.create ~k nl in
      let randomize () = set_random_inputs st (Slab.set_input_word slab) nl k in
      let settle = sample ~before:randomize kernel_calls (fun () -> Slab.settle slab) in
      let tick = sample ~before:(fun () -> randomize (); Slab.settle slab) kernel_calls (fun () -> Slab.tick slab) in
      (* a gated slab with its inputs held: after a few cycles nothing
         changes, and a settle only scans the dirty bits *)
      let idle = Slab.create ~k ~gating:true nl in
      for _ = 1 to 8 do
        Slab.step idle
      done;
      let settle_idle = sample ~before:(fun () -> Slab.tick idle) kernel_calls (fun () -> Slab.settle idle) in
      let wide = Wide.create nl in
      let wide_step =
        sample
          ~before:(fun () -> set_random_inputs st (fun name _ v -> Wide.set_input wide name v) nl 1)
          kernel_calls
          (fun () -> Wide.step wide)
      in
      (* scheduler dispatch of this circuit's stuck-at chunk count, with
         empty task bodies *)
      let faults = C.all_stuck_at nl in
      let chunks = (Scheduler.chunking ~reserved:1 ~lanes:(Wide.lanes * k) (List.length faults)).Scheduler.count in
      let scheduler = Scheduler.create ~domains () in
      let dispatch, render =
        Fun.protect
          ~finally:(fun () -> Scheduler.shutdown scheduler)
          (fun () ->
            let report =
              C.run ~scheduler ~engine:(`Slab k) nl ~faults ~stimulus:(C.random_stimulus ~seed:0 ~cycles:2 nl)
                ~cycles:2
            in
            let dispatch = sample calls (fun () -> Scheduler.run_tasks scheduler chunks (fun ~member:_ _ -> ())) in
            (dispatch /. float_of_int chunks, sample calls (fun () -> C.to_json report)))
      in
      let seconds =
        [ ("build", build); ("digest", digest); ("optimize", optimize); ("sweep", sweep);
          ("levelize", levelize); ("layout", layout); ("compile", compile); ("cache_hit", cache_hit);
          ("settle", settle); ("tick", tick); ("settle_gated_idle", settle_idle);
          ("wide_step", wide_step); ("dispatch", dispatch); ("render", render) ]
      in
      List.map
        (fun (layer, unit_) ->
          let s = List.assoc layer seconds in
          (metric_name label layer unit_, (if unit_ = "ms" then s *. 1e3 else s *. 1e6), unit_))
        layers)
    circuits

let metric_names =
  List.concat_map
    (fun (_, label) -> List.map (fun (layer, unit_) -> (metric_name label layer unit_, unit_)) layers)
    circuits
