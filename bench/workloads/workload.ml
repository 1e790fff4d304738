(* The four workloads.  Each is a closed loop with one client: request
   [i]'s inputs are generated (untimed), the library call is timed from
   call to return, and its answer is checked (untimed) before request
   [i+1] is sent.  A workload's set-up builds what every request reuses
   — netlists, a fresh cache and scheduler, compiled engines — and is
   timed separately as [setup_s]. *)

module N = Hydra_netlist.Netlist
module C = Hydra_verify.Campaign
module Cache = Hydra_engine.Cache
module Scheduler = Hydra_engine.Scheduler
module Kernel = Hydra_engine.Kernel
module Slab = Hydra_engine.Slab
module Wide = Hydra_engine.Compiled_wide
module Equiv = Hydra_verify.Equiv
module Driver = Hydra_cpu.Driver
module Golden = Hydra_cpu.Golden
module Sim = Hydra_analyze.Sim

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* What a checked request contributes: units of work (faults graded,
   instructions retired, designs processed) and a digest of its answers
   for the run's [results_digest]. *)
type outcome = { work : float; answer : string }

type instance = {
  prepare : int -> unit -> unit -> outcome;
      (** [prepare i] generates request [i]'s inputs and returns the timed
          call; the call returns the check, which raises {!Wrong} on a
          wrong answer *)
  counters : unit -> (string * float) list;
      (** per-layer counts and ratios accumulated since set-up *)
  close : unit -> unit;
}

type t = {
  name : string;
  work_unit : string;
  why : string;
  requests : int;  (** request count of a run of {!reference_seconds} *)
  setup : seed:int -> domains:int -> instance;
}

(* The run length at which each workload runs its own [requests]; on a
   2-core x86 host a run, set-ups included, then takes 11-29 s. *)
let reference_seconds = 15

(* Request count for a run of [seconds]: fixed by the workload and the
   run length alone, never by how fast this host happens to be, so two
   commits always do identical work.  At least 100, so the 90th
   percentile has ten samples beyond it. *)
let requests w ~seconds = max 100 (w.requests * seconds / reference_seconds)

let build name = Spans.span "netlist.build" (fun () -> Circuits.build name)

(* A direct cache call, recorded as "cache.hit" or "cache.miss" by the
   cache's own miss counter. *)
let cached cache f =
  Spans.span_as (fun () ->
      let misses () = (Cache.stats cache).Cache.misses in
      let m0 = misses () in
      let r = f () in
      (r, if misses () > m0 then "cache.miss" else "cache.hit"))

let cache_counters cache ~since =
  let s = Cache.stats cache in
  let hits = s.Cache.hits - since.Cache.hits and misses = s.Cache.misses - since.Cache.misses in
  [
    ("cache.hit_ratio", if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
    ("cache.evictions", float_of_int (s.Cache.evictions - since.Cache.evictions));
  ]

(* A cheap order-sensitive hash of a sequence of answers. *)
let mix h x = (h * 1_000_003) lxor Hashtbl.hash x

(* ---- fault campaigns ---- *)

let slab_k = 4

let answer_of_report (r : C.report) =
  string_of_int
    (List.fold_left
       (fun h v ->
         mix h
           (match v.C.classification with
           | C.Detected { cycle; output; _ } -> (1, cycle, output)
           | C.Latent -> (2, 0, "")
           | C.Masked -> (3, 0, "")))
       0 r.C.verdicts)

(* Invariants every verdict must satisfy: one verdict per fault, in
   order, with a detection inside the window naming a real output. *)
let check_verdicts nl ~faults ~cycles (r : C.report) =
  let outputs = Hashtbl.create 64 in
  List.iter (fun (name, _) -> Hashtbl.replace outputs name ()) nl.N.outputs;
  if r.C.total <> Array.length faults || List.length r.C.verdicts <> r.C.total then
    wrong "campaign graded %d of %d faults" r.C.total (Array.length faults);
  if r.C.detected + r.C.latent + r.C.masked <> r.C.total then wrong "campaign totals do not add up";
  List.iteri
    (fun j v ->
      if v.C.fault <> faults.(j) then wrong "verdict %d belongs to another fault" j;
      match v.C.classification with
      | C.Detected { latency; cycle; output } ->
        let injected = match v.C.fault with C.Seu { at_cycle; _ } -> at_cycle | _ -> 0 in
        if cycle < injected || cycle >= cycles || latency <> cycle - injected
           || not (Hashtbl.mem outputs output)
        then wrong "verdict %d: impossible detection %s" j (C.verdict_to_string v)
      | C.Latent | C.Masked -> ())
    r.C.verdicts

(* Re-grade a seeded sample of 61 faults (one wide pass) on the wide
   engine — a different engine from the slab under test — and demand
   the same verdicts. *)
let cross_check ~checker st nl ~faults ~stimulus ~cycles (r : C.report) =
  let verdicts = Array.of_list r.C.verdicts in
  let idx = Array.init (Wide.lanes - 1) (fun _ -> Random.State.int st (Array.length faults)) in
  let reference =
    C.run ~cache:checker ~engine:`Wide nl
      ~faults:(Array.to_list (Array.map (fun i -> faults.(i)) idx))
      ~stimulus ~cycles
  in
  List.iteri
    (fun j v ->
      if v <> verdicts.(idx.(j)) then
        wrong "slab says %s, wide says %s" (C.verdict_to_string verdicts.(idx.(j)))
          (C.verdict_to_string v))
    reference.C.verdicts

(* The classification of one gate stuck-at fault, derived independently
   of the campaign engine: the fault is injected by netlist rewriting and
   both circuits run on the reference simulator, which shares no code
   with the compiled engines. *)
let reference_stuck_at golden nl ~stimulus ~cycles ~site ~value =
  let faulty = Sim.packed_create (Hydra_verify.Fault.inject nl { Hydra_verify.Fault.site; stuck = value }) in
  Sim.packed_reset golden;
  let drive c =
    List.iter
      (fun (name, bits) ->
        let v = if List.nth bits c then Hydra_core.Packed.lane_mask else 0 in
        Sim.packed_set_input golden name v;
        Sim.packed_set_input faulty name v)
      stimulus
  in
  let rec go c =
    if c = cycles then None
    else begin
      drive c;
      Sim.packed_settle golden;
      Sim.packed_settle faulty;
      match
        List.find_opt
          (fun (name, _) -> Sim.packed_output golden name land 1 <> Sim.packed_output faulty name land 1)
          nl.N.outputs
      with
      | Some (output, _) -> Some (C.Detected { latency = c; cycle = c; output })
      | None ->
        Sim.packed_tick golden;
        Sim.packed_tick faulty;
        go (c + 1)
    end
  in
  match go 0 with
  | Some d -> d
  | None ->
    (* settle once more so each dff reads its final latched state *)
    Sim.packed_settle golden;
    Sim.packed_settle faulty;
    if List.exists
         (fun d -> Sim.packed_value golden d land 1 <> Sim.packed_value faulty d land 1)
         (C.dff_sites nl)
    then C.Latent
    else C.Masked

type tally = { mutable graded : int; mutable detected : int; mutable latent : int }

let campaign_counters ~cache ~since ~chunks tally () =
  let frac n = if tally.graded = 0 then 0. else float_of_int n /. float_of_int tally.graded in
  ("campaign.chunks", float_of_int chunks)
  :: ("campaign.detected_frac", frac tally.detected)
  :: ("campaign.latent_frac", frac tally.latent)
  :: cache_counters cache ~since

let record tally (r : C.report) =
  tally.graded <- tally.graded + r.C.total;
  tally.detected <- tally.detected + r.C.detected;
  tally.latent <- tally.latent + r.C.latent

(* Stimulus cycles per fault-wallace64 request. *)
let wallace_cycles = 6

let fault_wallace64 =
  let setup ~seed ~domains =
    let nl = build "wallace:64" in
    let faults = Array.of_list (C.all_stuck_at nl) in
    let cache = Cache.create () in
    let scheduler = Scheduler.create ~domains () in
    (* the campaign's own engine flavour, compiled once *)
    ignore
      (cached cache (fun () ->
           Cache.slab cache ~k:slab_k ~optimize:false ~relayout:false ~fuse:false nl));
    let since = Cache.stats cache in
    let checker = Cache.create () in
    let golden = lazy (Sim.packed_create nl) in
    let gates =
      Array.of_list
        (List.filter
           (fun i -> match nl.N.components.(i) with N.And2c | N.Or2c | N.Xor2c | N.Invc -> true | _ -> false)
           (List.init (N.size nl) Fun.id))
    in
    let cycles = wallace_cycles in
    let tally = { graded = 0; detected = 0; latent = 0 } in
    let prepare i =
      let stimulus = C.random_stimulus ~seed:(Gen.stimulus_seed ~seed ~req:i) ~cycles nl in
      let st = Gen.rng 0xfa seed i in
      fun () ->
        let r =
          Spans.span "campaign" (fun () ->
              C.run ~scheduler ~cache ~engine:(`Slab slab_k) nl ~faults:(Array.to_list faults)
                ~stimulus ~cycles)
        in
        fun () ->
          check_verdicts nl ~faults ~cycles r;
          cross_check ~checker st nl ~faults ~stimulus ~cycles r;
          let site = gates.(Random.State.int st (Array.length gates)) in
          let value = Random.State.bool st in
          let expected = reference_stuck_at (Lazy.force golden) nl ~stimulus ~cycles ~site ~value in
          let got =
            List.find
              (fun v -> v.C.fault = C.Stuck_at { site; value })
              r.C.verdicts
          in
          if got.C.classification <> expected then
            wrong "%s: campaign says %s, reference simulator says %s" got.C.name
              (C.class_string got.C.classification) (C.class_string expected);
          record tally r;
          { work = float_of_int r.C.total; answer = answer_of_report r }
    in
    {
      prepare;
      counters =
        campaign_counters ~cache ~since
          ~chunks:(Scheduler.chunking ~reserved:1 ~lanes:(Wide.lanes * slab_k) (Array.length faults)).Scheduler.count
          tally;
      close = (fun () -> Scheduler.shutdown scheduler);
    }
  in
  {
    name = "fault-wallace64";
    work_unit = "faults";
    why =
      "all 52,246 stuck-at faults of a 64-bit Wallace multiplier per request: dense, high-toggle slab kernels, force masks and scheduler chunk dispatch do the work";
    requests = 100;
    setup;
  }

let run_cycles = 300

let cpu_seu_gated =
  let setup ~seed ~domains =
    let nl = Spans.span "netlist.build" (fun () -> Driver.system_netlist ~mem_bits:6 ()) in
    let dffs = C.dff_sites nl in
    let cache = Cache.create () in
    let scheduler = Scheduler.create ~domains () in
    ignore
      (cached cache (fun () ->
           Cache.slab cache ~k:slab_k ~gating:true ~optimize:false ~relayout:false ~fuse:false nl));
    let since = Cache.stats cache in
    let checker = Cache.create () in
    let tally = { graded = 0; detected = 0; latent = 0 } in
    let prepare i =
      let program, c1, c2 = Gen.seu_request ~seed ~req:i ~run_cycles:60 in
      let stimulus, cycles = Driver.program_stimulus ~mem_bits:6 ~max_cycles:run_cycles program in
      let faults =
        Array.of_list
          (List.concat_map (fun at_cycle -> List.map (fun site -> C.Seu { site; at_cycle }) dffs) [ c1; c2 ])
      in
      let st = Gen.rng 0x5c seed i in
      fun () ->
        let r =
          Spans.span "campaign" (fun () ->
              C.run ~scheduler ~cache ~engine:(`Slab slab_k) ~gating:true nl
                ~faults:(Array.to_list faults) ~stimulus ~cycles)
        in
        fun () ->
          check_verdicts nl ~faults ~cycles r;
          cross_check ~checker st nl ~faults ~stimulus ~cycles r;
          record tally r;
          { work = float_of_int r.C.total; answer = answer_of_report r }
    in
    {
      prepare;
      counters =
        campaign_counters ~cache ~since
          ~chunks:(Scheduler.chunking ~reserved:1 ~lanes:(Wide.lanes * slab_k) (2 * List.length dffs)).Scheduler.count
          tally;
      close = (fun () -> Scheduler.shutdown scheduler);
    }
  in
  {
    name = "cpu-seu-gated";
    work_unit = "faults";
    why =
      "SEUs in every dff of the gate-level CPU running a seeded program, gated slab: sparse activity over 300+ cycles, where gating and latch changes show";
    requests = 120;
    setup;
  }

(* ---- many programs on the gate-level CPU ---- *)

let programs_per_request = 248

let cpu_programs =
  let setup ~seed ~domains =
    let nl = Spans.span "netlist.build" (fun () -> Driver.system_netlist ~mem_bits:6 ()) in
    let program = Spans.span "kernel.compile" (fun () -> Kernel.compile nl) in
    let sharded = Hydra_engine.Sharded.of_base ~domains (Wide.of_program program) in
    let sim_cycles = ref 0 in
    let prepare i =
      let programs = Gen.program_batch ~seed ~req:i programs_per_request in
      fun () ->
        let results =
          Spans.span "driver.run_many" (fun () -> Driver.run_many ~mem_bits:6 ~sharded programs)
        in
        fun () ->
          let retired = ref 0 and h = ref 0 in
          Array.iteri
            (fun k p ->
              let g = Golden.create ~mem_words:64 () in
              Golden.load_program g p;
              ignore (Golden.run g);
              let r = results.(k) in
              if r.Driver.halted <> g.Golden.halted || r.Driver.cycles <> g.Golden.cycles then
                wrong "program %d: gate level halted=%b after %d cycles, golden halted=%b after %d" k
                  r.Driver.halted r.Driver.cycles g.Golden.halted g.Golden.cycles;
              retired := !retired + g.Golden.instructions;
              sim_cycles := !sim_cycles + r.Driver.cycles;
              h := mix !h (r.Driver.halted, r.Driver.cycles, r.Driver.pc))
            programs;
          { work = float_of_int !retired; answer = string_of_int !h }
    in
    {
      prepare;
      counters = (fun () -> [ ("driver.sim_cycles", float_of_int !sim_cycles) ]);
      close = (fun () -> Hydra_engine.Sharded.shutdown sharded);
    }
  in
  {
    name = "cpu-programs";
    work_unit = "instructions";
    why =
      "248 seeded programs per request on one Sharded wide engine, checked against Golden: the only workload on the Sharded + Compiled_wide path";
    requests = 250;
    setup;
  }

(* ---- the build -> optimize -> compile -> check loop ---- *)

type session = {
  mutable source : N.t;  (** the circuit as last built *)
  mutable working : (N.t * Kernel.program) option;  (** the edited copy and its program *)
}

let design_loop =
  let setup ~seed ~domains =
    let cache = Cache.create () in
    let scheduler = Scheduler.create ~domains () in
    (* opening the project elaborates every design once *)
    let sessions = Hashtbl.create 64 in
    List.iter
      (fun (c, _) -> Hashtbl.replace sessions c { source = build c; working = None })
      Gen.catalogue;
    let since = Cache.stats cache in
    (* a session reopens its circuit twice within its group of four, so
       the checker's wide engines need only outlive a group; keeping
       more would add the checker's memory to [peak_rss_mb] *)
    let checker = Cache.create ~capacity:8 () in
    let schedule = Hashtbl.create 4 in
    let step i =
      let round = i / Gen.round_length in
      let steps =
        match Hashtbl.find_opt schedule round with
        | Some s -> s
        | None ->
          let s = Array.of_list (Gen.design_round ~seed ~round) in
          Hashtbl.replace schedule round s;
          s
      in
      steps.(i mod Gen.round_length)
    in
    let patched = ref 0. and patches = ref 0 in
    let prepare i =
      let { Gen.circuit; kind; step_seed } = step i in
      let s = Hashtbl.find sessions circuit in
      let st = Random.State.make [| step_seed |] in
      let answer x = { work = 1.; answer = Gen.kind_name kind ^ ":" ^ x } in
      match kind with
      | Gen.Verify_opt ->
        fun () ->
          let nl = build circuit in
          let opt = Spans.span "optimize" (fun () -> Hydra_netlist.Optimize.optimize nl) in
          let r =
            Spans.span "equiv" (fun () ->
                Equiv.wide_random_netlists ~scheduler ~cache ~passes:2 ~cycles:16 ~seed:step_seed nl
                  opt)
          in
          fun () ->
            if not (Equiv.seq_equivalent r) then wrong "%s: optimized netlist is not equivalent" circuit;
            s.source <- nl;
            s.working <- None;
            answer (string_of_int (N.size opt))
      | Gen.Edit ->
        let base = match s.working with Some (nl, _) -> nl | None -> s.source in
        let edited, site = Gen.gate_edit st base in
        fun () ->
          let program =
            match s.working with
            | Some (_, p) -> p
            | None -> Spans.span "kernel.compile" (fun () -> Kernel.compile ~relayout:false base)
          in
          let program', stats =
            Spans.span "kernel.patch" (fun () -> Kernel.patch program edited ~edited:[ site ])
          in
          let outcome =
            Spans.span "equiv" (fun () -> Equiv.certify_patch ~passes:1 ~seed:step_seed program')
          in
          fun () ->
            if not (Hydra_analyze.Certify.certified outcome) then
              wrong "%s: patch not certified: %s" circuit (Hydra_analyze.Certify.describe outcome);
            s.working <- Some (edited, program');
            patched :=
              !patched +. (float_of_int stats.Kernel.p_comps_recompiled /. float_of_int stats.Kernel.p_comps_total);
            incr patches;
            answer (string_of_int site)
      | Gen.Reopen ->
        let nl = s.source in
        let cycles = 4 in
        let stimulus =
          Array.init cycles (fun _ ->
              List.map (fun (name, _) -> (name, Gen.random_words st slab_k)) nl.N.inputs)
        in
        fun () ->
          let slab = cached cache (fun () -> Cache.slab cache ~k:slab_k nl) in
          let outputs =
            Spans.span "slab" (fun () ->
                Array.map
                  (fun inputs ->
                    List.iter
                      (fun (name, ws) -> Array.iteri (fun w v -> Slab.set_input_word slab name w v) ws)
                      inputs;
                    Slab.settle slab;
                    let o =
                      List.map (fun (name, _) -> Array.init slab_k (Slab.output_word slab name)) nl.N.outputs
                    in
                    Slab.tick slab;
                    o)
                  stimulus)
          in
          fun () ->
            let wide = Cache.wide checker nl in
            for w = 0 to slab_k - 1 do
              Wide.reset wide;
              Array.iteri
                (fun c inputs ->
                  List.iter (fun (name, ws) -> Wide.set_input wide name ws.(w)) inputs;
                  Wide.settle wide;
                  List.iter2
                    (fun (name, _) words ->
                      if Wide.output wide name <> words.(w) then
                        wrong "%s: slab word %d output %s differs from wide at cycle %d" circuit w name c)
                    nl.N.outputs outputs.(c);
                  Wide.tick wide)
                stimulus
            done;
            answer (Gen.digest outputs)
      | Gen.Lint ->
        let nl = match s.working with Some (nl, _) -> nl | None -> s.source in
        fun () ->
          let diags = Spans.span "lint" (fun () -> Hydra_analyze.Lint.run nl) in
          fun () ->
            if Hydra_analyze.Diagnostic.count_errors diags > 0 then
              wrong "%s: lint reports errors on a well-formed design" circuit;
            answer
              (string_of_int
                 (List.fold_left
                    (fun h d -> mix h (d.Hydra_analyze.Diagnostic.rule, d.Hydra_analyze.Diagnostic.components))
                    0 diags))
    in
    {
      prepare;
      counters =
        (fun () ->
          ("kernel.patch.recompiled_frac", if !patches = 0 then 0. else !patched /. float_of_int !patches)
          :: cache_counters cache ~since);
      close = (fun () -> Scheduler.shutdown scheduler);
    }
  in
  {
    name = "design-loop";
    work_unit = "designs";
    why =
      "build/optimize/equiv, patch/certify, cache reopen and lint over 40 circuits with a working set above the cache: compile, cache and analysis dominate";
    requests = 600;
    setup;
  }

let all = [ fault_wallace64; cpu_seu_gated; cpu_programs; design_loop ]

let find name = List.find_opt (fun w -> w.name = name) all
