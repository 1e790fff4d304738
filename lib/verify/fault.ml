(* Stuck-at fault simulation.

   The classic manufacturing-test model: a fault forces one component's
   output permanently to 0 or 1.  A test vector set *detects* a fault if
   some vector makes a faulty circuit's outputs differ from the good
   circuit's.  Coverage — the fraction of faults detected — measures the
   quality of a test set, which is the practical purpose of the
   simulation tooling the paper motivates in section 4.2.

   Since the campaign engine landed this module is a thin compatibility
   layer over {!Campaign}: faults are injected as per-lane force masks
   at runtime (61 faults per engine pass, chunked across domains) rather
   than by rewriting and recompiling the netlist once per fault.
   [inject]/[response] keep the old rewriting semantics for callers that
   want a standalone faulty netlist, and [coverage_recompile] preserves
   the historic per-fault rewrite loop as the bit-identity reference
   (and benchmark baseline).  [response] runs on the packed reference
   simulator ({!Hydra_analyze.Sim}), so that reference shares no code
   with the campaign's slab kernels. *)

module Netlist = Hydra_netlist.Netlist
module Sim = Hydra_analyze.Sim

type fault = { site : int; stuck : bool }

let fault_name nl { site; stuck } =
  Printf.sprintf "%s@%d stuck-at-%d"
    (Netlist.component_name nl.Netlist.components.(site))
    site (Bool.to_int stuck)

(* All faults on gate and flip-flop outputs. *)
let all_faults nl =
  let faults = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
      | Netlist.Dffc _ ->
        faults := { site = i; stuck = true } :: { site = i; stuck = false } :: !faults
      | Netlist.Inport _ | Netlist.Outport _ | Netlist.Constant _ -> ())
    nl.Netlist.components;
  List.rev !faults

(* [inject nl fault]: a netlist where [fault.site]'s consumers read the
   constant [fault.stuck] instead. *)
let inject nl { site; stuck } =
  let n = Netlist.size nl in
  (* append one constant component at index n *)
  let components = Array.append nl.Netlist.components [| Netlist.Constant stuck |] in
  let names = Array.append nl.Netlist.names [| [] |] in
  let fanin =
    Array.append
      (Array.map
         (fun drivers ->
           Array.map (fun d -> if d = site then n else d) drivers)
         nl.Netlist.fanin)
      [| [||] |]
  in
  { nl with Netlist.components; names; fanin }

(* Run [vectors] (rows of input values, in input-port order) on a
   combinational or sequential circuit for [cycles_per_vector] cycles each
   and collect the output rows; used to compare good and faulty runs.
   Runs on the packed reference simulator: broadcast words in, lane 0
   out. *)
let response nl ~vectors ~cycles_per_vector =
  Campaign.check_vectors nl vectors;
  let sim = Sim.packed_create nl in
  let names = List.map fst nl.Netlist.inputs in
  List.map
    (fun vector ->
      List.iter2 (fun n b -> Sim.packed_set_input sim n (-Bool.to_int b)) names vector;
      let rows = ref [] in
      for _ = 1 to cycles_per_vector do
        Sim.packed_settle sim;
        rows :=
          List.map (fun (_, i) -> Sim.packed_value sim i land 1 = 1) nl.Netlist.outputs
          :: !rows;
        Sim.packed_tick sim
      done;
      List.rev !rows)
    vectors

type coverage = {
  total : int;
  detected : int;
  undetected : fault list;
}

let ratio c = if c.total = 0 then 1.0 else float_of_int c.detected /. float_of_int c.total

(* The historic per-fault netlist-rewrite loop, kept as the bit-identity
   reference for [coverage] and as the benchmark baseline. *)
let coverage_recompile ?(cycles_per_vector = 1) nl ~vectors =
  let good = response nl ~vectors ~cycles_per_vector in
  let faults = all_faults nl in
  let undetected = ref [] in
  let detected = ref 0 in
  List.iter
    (fun f ->
      let bad = response (inject nl f) ~vectors ~cycles_per_vector in
      if bad <> good then incr detected else undetected := f :: !undetected)
    faults;
  { total = List.length faults; detected = !detected; undetected = List.rev !undetected }

let campaign_fault { site; stuck } = Campaign.Stuck_at { site; value = stuck }

(* Detection is equivalent across the two engines: the old loop runs all
   vectors through ONE faulty simulation (state carries across vectors),
   so a campaign holding each vector [cycles_per_vector] cycles sees the
   same trajectory, and "some output row differs" is exactly the
   campaign's Detected class (Latent state-only divergence is invisible
   to the old loop too). *)
let coverage_of_faults ?scheduler ?cache ?(cycles_per_vector = 1) nl ~vectors
    faults =
  let stimulus, cycles = Campaign.stimulus_of_vectors ~cycles_per_vector nl vectors in
  let report =
    Campaign.run ?scheduler ?cache nl
      ~faults:(List.map campaign_fault faults) ~stimulus ~cycles
  in
  let undetected =
    List.filter_map
      (fun (f, v) ->
        match v.Campaign.classification with
        | Campaign.Detected _ -> None
        | Campaign.Latent | Campaign.Masked -> Some f)
      (List.combine faults report.Campaign.verdicts)
  in
  { total = report.Campaign.total;
    detected = report.Campaign.detected;
    undetected }

(* [coverage nl ~vectors]: fraction of stuck-at faults detected by the
   vector set.  Sequential circuits get [cycles_per_vector] cycles of
   observation per vector (state carries over within one fault's run). *)
let coverage ?cycles_per_vector nl ~vectors =
  coverage_of_faults ?cycles_per_vector nl ~vectors (all_faults nl)

(* Greedy random test generation: add random vectors until coverage stops
   improving or reaches [target]. *)
let random_vectors ~seed ~inputs n =
  let st = Random.State.make [| seed; inputs; n |] in
  List.init n (fun _ -> List.init inputs (fun _ -> Random.State.bool st))

(* Detection is monotone under vector-list extension (the prefix of the
   response is unchanged), so each batch only re-simulates the still-
   undetected faults over the full grown vector list — bit-identical to
   grading every fault from scratch, at a fraction of the work. *)
let generate_tests ?(seed = 42) ?(target = 1.0) ?(batch = 16) ?(max_vectors = 512)
    ?cycles_per_vector nl =
  let inputs = List.length nl.Netlist.inputs in
  let all = all_faults nl in
  let total = List.length all in
  (* every batch's campaign engine comes from the process-wide compiled-
     circuit cache: the first batch compiles, the rest replicate *)
  let cache = Hydra_engine.Cache.shared () in
  (* one persistent scheduler for every batch when the fault list needs
     chunking anyway; small circuits stay on a one-member team *)
  let scheduler =
    if total > Hydra_core.Packed.lanes - 1 then
      Some (Hydra_engine.Scheduler.create ())
    else None
  in
  let grade vectors faults =
    coverage_of_faults ?scheduler ~cache ?cycles_per_vector nl ~vectors faults
  in
  let finish vectors undetected =
    (vectors, { total; detected = total - List.length undetected; undetected })
  in
  let rec go vectors undetected =
    let detected = total - List.length undetected in
    let r = if total = 0 then 1.0 else float_of_int detected /. float_of_int total in
    if r >= target || List.length vectors >= max_vectors then
      finish vectors undetected
    else begin
      let fresh = random_vectors ~seed:(seed + List.length vectors) ~inputs batch in
      let vectors' = vectors @ fresh in
      let cov' = grade vectors' undetected in
      (* a batch that detects nothing new ends the search *)
      if cov'.detected = 0 then finish vectors undetected
      else go vectors' cov'.undetected
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Hydra_engine.Scheduler.shutdown scheduler)
    (fun () ->
      let initial = random_vectors ~seed ~inputs batch in
      go initial (grade initial all).undetected)
