(* Lane-parallel fault-injection campaigns.

   The robustness question the paper's section 4.2 motivates — how does
   the design behave under conditions you did not intend? — answered at
   engine speed: lane 0 of a K-word {!Slab} runs the golden circuit
   while each of its other 62*K - 1 lanes runs a distinct fault,
   injected through per-lane force masks instead of per-fault netlist
   rewriting and recompilation (K = 1 for [`Wide]).  Every fault is
   classified against the golden lane: detected (an observable output
   diverged, with detection latency), latent (outputs never diverged but
   some dff's final state did) or masked (no divergence at all).

   [run] has four parts.  The planner ([plan]) validates the input and
   fixes what no chunk changes.  The golden prefix ([golden_prefix])
   runs the fault-free circuit once, for the state at each round-0
   chunk's first upset and, when some chunk can settle as a cone, the
   golden trace.  A chunk ([run_chunk]) runs one job on the whole
   circuit or on its faults' cone (see "Cone restriction") and stops
   once half its verdicts are final (see "Fault dropping").  The rounds
   fan each round's jobs out over {!Scheduler.run_tasks} and pack the
   survivors of stopped chunks into the next round.

   The engines are compiled unoptimized and [~relayout:false], so
   component indices match the caller's netlist unchanged.  A campaign
   with a stuck-at or intermittent fault also builds them [~fuse:false],
   because its force sites may be any gate.  An SEU-only campaign
   installs no force and reads only dffs, their drivers, constants and
   outports, none of which fusion consumes, so it runs on the fused
   kernels; a fused engine has no cones (see "Cone restriction"). *)

module Netlist = Hydra_netlist.Netlist
module Packed = Hydra_core.Packed
module Slab = Hydra_engine.Slab
module Kernel = Hydra_engine.Kernel
module Sharded = Hydra_engine.Sharded
module Scheduler = Hydra_engine.Scheduler
module Cache = Hydra_engine.Cache
module Resilience = Hydra_engine.Resilience

type fault =
  | Stuck_at of { site : int; value : bool }
  | Seu of { site : int; at_cycle : int }
  | Intermittent of { site : int; rate : float; seed : int }

type classification =
  | Detected of { latency : int; cycle : int; output : string }
  | Latent
  | Masked

type verdict = {
  fault : fault;
  name : string;
  classification : classification;
  status : (string * bool) list;
}

type report = {
  netlist : Netlist.t;
  stimulus : (string * bool list) list;
  cycles : int;
  total : int;
  detected : int;
  latent : int;
  masked : int;
  verdicts : verdict list;
  chunk_cycles : int;
  chunks : int;
  cone_chunks : int;
}

let site_of = function
  | Stuck_at { site; _ } | Seu { site; _ } | Intermittent { site; _ } -> site

(* the cycle a fault strikes: its upset's, or 0 for one present throughout *)
let strike = function Seu { at_cycle; _ } -> at_cycle | Stuck_at _ | Intermittent _ -> 0

(* One name per verdict, tens of thousands per campaign: built by
   concatenation rather than [Printf]. *)
let fault_name nl fault =
  let d = Netlist.describe nl (site_of fault) in
  match fault with
  | Stuck_at { value; _ } -> d ^ if value then " stuck-at-1" else " stuck-at-0"
  | Seu { at_cycle; _ } -> d ^ " seu@" ^ string_of_int at_cycle
  | Intermittent { rate; seed; _ } ->
    Printf.sprintf "%s intermittent(rate=%g,seed=%d)" d rate seed

(* Enumerators.  [all_stuck_at] preserves the historic {!Fault} order
   (site ascending, stuck-at-0 before stuck-at-1) so reports line up
   with the legacy coverage API. *)

let sites_where f nl =
  let sites = ref [] in
  for i = Netlist.size nl - 1 downto 0 do
    if f nl.Netlist.components.(i) then sites := i :: !sites
  done;
  !sites

let all_stuck_at nl =
  List.concat_map
    (fun site -> [ Stuck_at { site; value = false }; Stuck_at { site; value = true } ])
    (sites_where
       (function
         | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c | Netlist.Dffc _ -> true
         | Netlist.Inport _ | Netlist.Outport _ | Netlist.Constant _ -> false)
       nl)

let dff_sites = sites_where (function Netlist.Dffc _ -> true | _ -> false)

let all_seu ?(at_cycle = 0) nl =
  List.map (fun site -> Seu { site; at_cycle }) (dff_sites nl)

let seu_sweep nl ~cycles =
  List.concat_map
    (fun site -> List.init cycles (fun c -> Seu { site; at_cycle = c }))
    (dff_sites nl)

(* Stimulus: one bool stream per input port, consumed cycle by cycle
   (missing ports idle at false, short streams pad with false). *)

(* A row must give each input one value: a short row would index past
   its end, a long one would be cut without a word. *)
let check_vectors nl vectors =
  let inputs = List.length nl.Netlist.inputs in
  List.iteri
    (fun r row ->
      let n = List.length row in
      if n <> inputs then
        invalid_arg
          (Printf.sprintf "vector row %d has %d values, but the circuit has %d inputs" r n inputs))
    vectors

let stimulus_of_vectors ?(cycles_per_vector = 1) nl vectors =
  check_vectors nl vectors;
  let names = List.map fst nl.Netlist.inputs in
  let rows = List.map Array.of_list vectors in
  ( List.mapi
      (fun k name ->
        ( name,
          List.concat_map
            (fun row -> List.init cycles_per_vector (fun _ -> row.(k)))
            rows ))
      names,
    cycles_per_vector * List.length vectors )

let random_stimulus ~seed ~cycles nl =
  let st = Random.State.make [| 0x5eed; seed; cycles |] in
  List.map
    (fun (name, _) -> (name, List.init cycles (fun _ -> Random.State.bool st)))
    nl.Netlist.inputs

(* Fault dropping.  A lane is resolved once its verdict is final:
   - detected: an output diverged from the golden lane's;
   - reconverged: an SEU lane past its upset whose every state site
     again equals the golden lane's — with no force on the lane, it is
     the golden run from then on;
   - fixed point: the inputs stay constant to the end of the window and
     neither the golden lane nor the lane latches a change at this tick,
     with no intermittent fault or upset still to come — every later
     cycle repeats this one.
   The last two, like every lane still unresolved at the end of the
   window, take their verdict from the state (latent or masked) in one
   function, [resolve].  Two C lane passes over the chunk's dffs answer
   these questions for all its lanes at once, one mask per slab word:
   after the settle, which lanes latch a change ({!Slab.latch_lanes},
   run only once the golden lane is known to be quiet); after the tick,
   which differ from the golden lane ({!Slab.diff_lanes}).  A chunk
   whose unresolved lanes fall to half its starting lanes (or fewer)
   stops at that cycle boundary instead of simulating on to the end of
   the window, and the survivors move to the next round, where
   survivors sharing a stop cycle are packed into full chunks that
   resume from the migrated state.  The state that carries across a
   cycle boundary lives in the dffs and — because a flip mask on a site
   nothing re-drives accumulates — the constants; every other
   component is recomputed by the next settle. *)

(* A chunk's work order: caller fault [j_faults.(k)] rides lane k+1.
   The chunk starts at cycle [j_start] with every state site at the
   golden word [j_golden] (a sign-extended lane-0 bit) except, per lane,
   the state sites listed in [j_diff]: round 0 starts at the chunk's
   first injection cycle from a golden snapshot with no differences,
   later rounds resume dropped chunks' survivors. *)
type job = {
  j_faults : int array;
  j_start : int;
  j_golden : int array;
  j_diff : int array array;
}

(* An undetected lane of a dropped chunk: its fault, the last cycle
   simulated, the golden state after it (shared by the chunk's
   survivors) and the state sites where this lane differs. *)
type survivor = {
  s_fault : int;
  s_stop : int;
  s_golden : int array;
  s_diff : int array;
}

(* Bit position of a power of two. *)
let log2 x =
  let x = ref x and n = ref 0 in
  if !x lsr 32 <> 0 then (x := !x lsr 32; n := 32);
  if !x lsr 16 <> 0 then (x := !x lsr 16; n := !n + 16);
  if !x lsr 8 <> 0 then (x := !x lsr 8; n := !n + 8);
  if !x lsr 4 <> 0 then (x := !x lsr 4; n := !n + 4);
  if !x lsr 2 <> 0 then (x := !x lsr 2; n := !n + 2);
  if !x lsr 1 <> 0 then n := !n + 1;
  !n

(* [f k] for every set bit of engine word [w] of a lane mask, where
   lane [k] of a chunk is global lane [k + 1]: cost O(set bits). *)
let iter_lanes f w x =
  let x = ref x in
  while !x <> 0 do
    let low = !x land - !x in
    f ((w * Packed.lanes) + log2 low - 1);
    x := !x lxor low
  done

(* Survivors sharing a stop cycle, in caller fault order, packed
   [per_chunk] to a job. *)
let pack ~per_chunk survivors =
  let a = Array.of_list survivors in
  Array.stable_sort
    (fun x y ->
      let c = Int.compare x.s_stop y.s_stop in
      if c <> 0 then c else Int.compare x.s_fault y.s_fault)
    a;
  let n = Array.length a in
  let jobs = ref [] and i = ref 0 in
  while !i < n do
    let s0 = a.(!i) in
    let j = ref (!i + 1) in
    while !j < n && !j - !i < per_chunk && a.(!j).s_stop = s0.s_stop do
      incr j
    done;
    let group = Array.sub a !i (!j - !i) in
    jobs :=
      {
        j_faults = Array.map (fun s -> s.s_fault) group;
        j_start = s0.s_stop + 1;
        j_golden = s0.s_golden;
        j_diff = Array.map (fun s -> s.s_diff) group;
      }
      :: !jobs;
    i := !j
  done;
  Array.of_list (List.rev !jobs)

(* Lane 0 is the golden lane: [golden w0] spreads bit 0 of a site's word
   0 across a whole word, so [word lxor golden w0] marks the lanes that
   differ from it. *)
let golden w0 = -(w0 land 1)

(* Lane [k] of a chunk is global lane [k + 1]. *)
let word_of k = (k + 1) / Packed.lanes
let bit_of k = 1 lsl ((k + 1) mod Packed.lanes)

let flip sim site k =
  Slab.poke_word sim site (word_of k) (Slab.peek_word sim site (word_of k) lxor bit_of k)

(* The planner's record: what no chunk changes.  [streams] holds one
   broadcast word per cycle of each input; [state_sites] are the dffs,
   then the constants, with indices [all_state] and [power_up] words;
   [dff_inputs] drive the dffs; from [const_from] to the end of the
   [window] every input word stays constant. *)
type plan = {
  nl : Netlist.t;
  faults : fault array;
  window : int;
  streams : (int * int array) array;
  compare_sites : (string * int) array;
  status_sites : (string * int) array;
  state_sites : int array;
  all_state : int array;
  power_up : int array;
  dff_inputs : int array;
  const_from : int;
  droppable : bool;
}

let plan nl ~faults ~stimulus ~cycles ~status_outputs =
  if cycles < 0 then
    invalid_arg
      (Printf.sprintf "Campaign.run: ~cycles %d is negative" cycles);
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error e -> invalid_arg ("Campaign.run: invalid netlist: " ^ e));
  let n = Netlist.size nl in
  List.iter
    (fun f ->
      let site = site_of f in
      if site < 0 || site >= n then
        invalid_arg "Campaign.run: fault site out of range";
      match (f, nl.Netlist.components.(site)) with
      | _, Netlist.Outport _ ->
        invalid_arg "Campaign.run: cannot fault an outport"
      | Seu { at_cycle; _ }, _ when at_cycle < 0 ->
        invalid_arg
          (Printf.sprintf "Campaign.run: SEU at cycle %d is before cycle 0"
             at_cycle)
      | Seu _, Netlist.Dffc _ -> ()
      | Seu _, _ ->
        invalid_arg
          (Printf.sprintf "Campaign.run: SEU site %d is not a dff" site)
      | Intermittent { rate; _ }, _ when not (rate >= 0.0 && rate <= 1.0) ->
        invalid_arg "Campaign.run: intermittent rate outside [0,1]"
      | _ -> ())
    faults;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name nl.Netlist.inputs) then
        invalid_arg ("Campaign.run: stimulus for unknown input " ^ name))
    stimulus;
  let streams =
    Array.of_list
      (List.map
         (fun (name, site) ->
           let words = Array.make (max cycles 1) 0 in
           (match List.assoc_opt name stimulus with
           | None -> ()
           | Some bits ->
             List.iteri
               (fun c b -> if c < cycles && b then words.(c) <- Packed.lane_mask)
               bits);
           (site, words))
         nl.Netlist.inputs)
  in
  let status_sites =
    Array.of_list
      (List.map
         (fun name ->
           match List.assoc_opt name nl.Netlist.outputs with
           | Some site -> (name, site)
           | None -> invalid_arg ("Campaign.run: unknown status output " ^ name))
         status_outputs)
  in
  let dffs = dff_sites nl in
  let consts = sites_where (function Netlist.Constant _ -> true | _ -> false) nl in
  let state_sites = Array.of_list (dffs @ consts) in
  {
    nl;
    faults = Array.of_list faults;
    window = cycles;
    streams;
    compare_sites =
      Array.of_list
        (List.filter
           (fun (name, _) -> not (List.mem name status_outputs))
           nl.Netlist.outputs);
    status_sites;
    state_sites;
    all_state = Array.init (Array.length state_sites) Fun.id;
    power_up =
      Array.map
        (fun site ->
          match nl.Netlist.components.(site) with
          | Netlist.Dffc b | Netlist.Constant b -> -Bool.to_int b
          | _ -> assert false)
        state_sites;
    dff_inputs = Array.of_list (List.map (fun d -> nl.Netlist.fanin.(d).(0)) dffs);
    const_from =
      Array.fold_left
        (fun acc (_, svs) ->
          let c = ref (cycles - 1) in
          while !c > 0 && svs.(!c - 1) = svs.(cycles - 1) do
            decr c
          done;
          max acc !c)
        0 streams;
    (* a status flag must be sampled over the whole window on every lane,
       detected or not, so status campaigns never drop, resolve early or
       skip the prefix *)
    droppable = status_sites = [||];
  }

let drive p sim c =
  for i = 0 to Array.length p.streams - 1 do
    let site, svs = p.streams.(i) in
    let v = svs.(c) in
    for w = 0 to Slab.k sim - 1 do
      Slab.poke_word sim site w v
    done
  done

(* every state site at the golden word [state.(i)], no forces; a settle
   recomputes every other component from the state, the inputs and the
   forces *)
let load p sim state =
  Slab.clear_forces sim;
  Array.iteri
    (fun i g ->
      for w = 0 to Slab.k sim - 1 do
        Slab.poke_word sim p.state_sites.(i) w g
      done)
    state

(* Cone restriction.  A fault can change only the components in its
   fanout cone (driver-to-reader edges, through dffs).  A chunk whose
   seeds — its fault sites and the state sites where a migrated lane
   differs — have a cone of at most n/8 components settles only the
   cone ({!Slab.settle_cone}), taking the values it reads from outside
   (its frontier) from a golden trace.  Outside the cone every lane
   equals the golden lane: the rest of the circuit is closed under
   fan-in and holds no fault or difference.  So the chunk reads only
   the cone's outputs, state and dff inputs, and takes a status flag
   or state bit outside it from the trace; verdicts are unchanged.

   The trace holds every component's settled golden bit at each cycle
   ({!Slab.record_row}), and [quiet.(c)] tells whether the golden run
   latches no change at cycle [c]'s tick.  The prefix task records it,
   running to the end of the window, when some round-0 chunk of a
   campaign with two or more runs as a cone.  A fused engine (an
   SEU-only campaign on a circuit with fusable gates) builds no cone,
   so it runs every chunk on the whole circuit, untraced. *)
type golden_trace = { trace : Slab.trace; quiet : bool array }

(* The shared fault-free prefix: from power-up, the golden state at the
   top of each round-0 start cycle (indexed by cycle), with [~traced] the
   trace of the whole window, and the cycles simulated. *)
let golden_prefix p sim ~starts ~traced =
  let last = Array.fold_left max 0 starts in
  let snaps = Array.make (last + 1) p.power_up in
  let trace = if traced then Some (Slab.trace sim ~cycles:p.window) else None in
  load p sim p.power_up;
  let snap c =
    if Array.mem c starts then
      snaps.(c) <-
        Array.map (fun site -> golden (Slab.peek_word sim site 0)) p.state_sites
  in
  let upto = if traced then p.window else last in
  for c = 0 to upto - 1 do
    snap c;
    drive p sim c;
    Slab.settle sim;
    Option.iter (fun tr -> Slab.record_row sim tr c) trace;
    Slab.tick sim
  done;
  snap upto;
  let dffs = Array.sub p.state_sites 0 (Array.length p.dff_inputs) in
  let quiet trace c =
    Array.for_all2
      (fun d i -> Slab.golden_bit trace c d = Slab.golden_bit trace c i)
      dffs p.dff_inputs
  in
  (snaps, Option.map (fun trace -> { trace; quiet = Array.init p.window (quiet trace) }) trace, upto)

(* What the lane passes read: the dffs among the state sites indexed by
   [state] and their drivers.  A whole-circuit chunk uses the
   campaign's [whole] pair, built once: replicas share the program the
   sites index. *)
type lane_sites = { l_dffs : Slab.sites; l_inputs : Slab.sites }

let lane_sites p sim state =
  let dffs = List.filter (fun i -> i < Array.length p.dff_inputs) (Array.to_list state) in
  let sites a = Slab.sites sim (Array.of_list (List.map (Array.get a) dffs)) in
  { l_dffs = sites p.state_sites; l_inputs = sites p.dff_inputs }

(* What a chunk reads: the whole circuit or its seeds' cone (see "Cone
   restriction").  [v_state] indexes the state sites inside, dffs first,
   and [v_lanes] holds their lane-pass sites.  [v_word c site w] is word
   [w] of [site] at cycle [c], from the trace outside the view. *)
type view = {
  v_cone : bool;
  v_settle : int -> unit;
  v_state : int array;
  v_lanes : lane_sites;
  v_compared : (string * int) array;
  v_word : int -> int -> int -> int;
}

let view p golden_trace whole sim job =
  let cone g =
    Slab.fanout_cone sim
      (Array.append
         (Array.map (fun fi -> site_of p.faults.(fi)) job.j_faults)
         (Array.map (fun i -> p.state_sites.(i)) (Array.concat (Array.to_list job.j_diff))))
    |> Option.map (fun cn -> (g.trace, cn))
  in
  match Option.bind golden_trace cone with
  | None ->
    {
      v_cone = false;
      v_settle = (fun _ -> Slab.settle sim);
      v_state = p.all_state;
      v_lanes = whole;
      v_compared = p.compare_sites;
      v_word = (fun _ site w -> Slab.peek_word sim site w);
    }
  | Some (trace, cn) ->
    let inside = Slab.in_cone sim cn in
    let keep f a = Array.of_list (List.filter f (Array.to_list a)) in
    let state = keep (fun i -> inside p.state_sites.(i)) p.all_state in
    {
      v_cone = true;
      v_settle = (fun c -> Slab.settle_cone sim cn trace c);
      v_state = state;
      v_lanes = lane_sites p sim state;
      v_compared = keep (fun (_, o) -> inside o) p.compare_sites;
      v_word =
        (fun c site w ->
          if inside site then Slab.peek_word sim site w
          else if Slab.golden_bit trace c site then Packed.lane_mask
          else 0);
    }

(* Load a job's migrated state and install its faults.  Fills in per
   lane the cycle its fault [strikes], and per engine word the [live],
   [seu_lanes], [pending] (upset still to fire) and [inter_lanes] lanes;
   returns the pending upsets (cycle, site, lane) and each intermittent
   fault's force, word, bit, rate and coin.  The slab keeps force arrays
   by reference: an intermittent fault re-seeds its flip mask in place. *)
let arm p sim job ~strikes ~live ~seu_lanes ~pending ~inter_lanes =
  let words = Slab.k sim and start = job.j_start in
  load p sim job.j_golden;
  Array.iteri
    (fun k diff -> Array.iter (fun i -> flip sim p.state_sites.(i) k) diff)
    job.j_diff;
  let force site =
    {
      Slab.f_site = site;
      force0 = Array.make words 0;
      force1 = Array.make words 0;
      flip = Array.make words 0;
    }
  in
  let forces = ref [] and upsets = ref [] and coins = ref [] in
  (* stuck-at faults on one site (adjacent in [all_stuck_at] order)
     share one force record: their lanes are disjoint *)
  let last_stuck = ref None in
  for k = 0 to Array.length job.j_faults - 1 do
    let wk = word_of k and bit = bit_of k and fault = p.faults.(job.j_faults.(k)) in
    live.(wk) <- live.(wk) lor bit;
    strikes.(k) <- strike fault;
    match fault with
    | Stuck_at { site; value } ->
      let f =
        match !last_stuck with
        | Some f when f.Slab.f_site = site -> f
        | _ ->
          let f = force site in
          forces := f :: !forces;
          last_stuck := Some f;
          f
      in
      if value then f.Slab.force1.(wk) <- f.Slab.force1.(wk) lor bit
      else f.Slab.force0.(wk) <- f.Slab.force0.(wk) lor bit
    | Seu { site; at_cycle } ->
      seu_lanes.(wk) <- seu_lanes.(wk) lor bit;
      (* an upset before [start] is already in the migrated state, one
         past the window never fires *)
      if at_cycle >= start && at_cycle < p.window then begin
        upsets := (at_cycle, site, k) :: !upsets;
        pending.(wk) <- pending.(wk) lor bit
      end
    | Intermittent { site; rate; seed } ->
      inter_lanes.(wk) <- inter_lanes.(wk) lor bit;
      let f = force site in
      forces := f :: !forces;
      (* seeded per fault, not per chunk, so results are independent of
         how faults land on chunks and members; a resumed chunk replays
         the draws of the cycles already simulated *)
      let st = Random.State.make [| seed; site |] in
      for _ = 1 to start do
        ignore (Random.State.float st 1.0)
      done;
      coins := (f, wk, bit, rate, st) :: !coins
  done;
  (* [load] cleared the forces; a fused engine takes none *)
  if !forces <> [] then Slab.set_forces sim (Array.of_list (List.rev !forces));
  (!upsets, !coins)

(* The unresolved lanes of a chunk stopped after cycle [stop]; only state
   sites inside the view can differ from the golden state. *)
let survivors p v sim job ~unres ~stop cls =
  let state = Array.map (fun site -> golden (v.v_word (stop + 1) site 0)) p.state_sites in
  let diffs = Array.make (Array.length cls) [] in
  Array.iter
    (fun i ->
      for w = 0 to Slab.k sim - 1 do
        let x = (Slab.peek_word sim p.state_sites.(i) w lxor state.(i)) land unres.(w) in
        if x <> 0 then iter_lanes (fun k -> diffs.(k) <- i :: diffs.(k)) w x
      done)
    v.v_state;
  List.filter_map
    (fun k ->
      if Option.is_some cls.(k) then None
      else
        Some { s_fault = job.j_faults.(k); s_stop = stop; s_golden = state; s_diff = Array.of_list diffs.(k) })
    (List.init (Array.length cls) Fun.id)

(* A chunk's result, besides its survivors: per lane, its caller fault
   and its verdict ([None] for a survivor); the cycles it simulated;
   whether it settled as a cone. *)
type outcome = {
  lane_faults : int array;
  lane_verdicts : verdict option array;
  simulated : int;
  coned : bool;
}

(* Run one job on [sim] from cycle [j_start] until the window ends or
   the chunk drops at half (see "Fault dropping"): its outcome and its
   survivors. *)
let run_chunk p golden_trace whole sim job =
  let words = Slab.k sim and count = Array.length job.j_faults in
  let v = view p golden_trace whole sim job in
  let strikes = Array.make count 0 and unres = Array.make words 0 in
  let seu_lanes = Array.make words 0 and pending = Array.make words 0 in
  let inter_lanes = Array.make words 0 in
  let upsets, coins = arm p sim job ~strikes ~live:unres ~seu_lanes ~pending ~inter_lanes in
  let cls = Array.make count None and n_unres = ref count in
  let status_acc = Array.make_matrix (Array.length p.status_sites) words 0 in
  (* per word: lanes at a fixed point, fired upsets, lanes that differ
     from the golden lane at a dff, lanes that latch a change *)
  let fixed = Array.make words 0 and reconv = Array.make words 0 in
  let latent = Array.make words 0 and found = Array.make words 0 in
  (* The one verdict of an undetected lane whose outputs can no longer
     diverge from the golden lane's — at the end of the window, or
     earlier by reconvergence or a fixed point: latent if some dff's
     state differs from the golden lane's ([latent], filled after the
     tick), masked otherwise.  Only the state counts — an upset that the
     circuit heals (e.g. an ECC reload) is masked. *)
  let resolve due =
    for w = 0 to words - 1 do
      let m = due.(w) land unres.(w) in
      if m <> 0 then begin
        iter_lanes
          (fun k ->
            cls.(k) <- Some (if latent.(w) land bit_of k <> 0 then Latent else Masked);
            decr n_unres)
          w m;
        unres.(w) <- unres.(w) lxor m
      end
    done
  in
  (* Whether the golden lane latches no change at this tick: from the
     trace if there is one, else on the whole circuit's dffs, trying
     [gwit], the dff last seen latching in lane 0, before a sweep.  The
     sweep stops at the first dff that latches, which is cheaper than a
     latch pass whenever the golden lane is busy. *)
  let ndffs = Array.length p.dff_inputs and gwit = ref 0 in
  let golden_latches i =
    (Slab.peek_word sim p.state_sites.(i) 0 lxor Slab.peek_word sim p.dff_inputs.(i) 0)
    land 1 <> 0
  in
  let golden_quiet c =
    match golden_trace with
    | Some g -> g.quiet.(c)
    | None ->
      (not (!gwit < ndffs && golden_latches !gwit))
      &&
      let i = ref 0 in
      while !i < ndffs && not (golden_latches !i) do
        incr i
      done;
      if !i < ndffs then gwit := !i;
      !i = ndffs
  in
  let any (a : int array) = Array.exists (fun x -> x <> 0) a in
  let stop = ref (-1) and cycle = ref job.j_start in
  while !cycle < p.window && !stop < 0 do
    let c = !cycle in
    drive p sim c;
    List.iter
      (fun (at, site, k) ->
        if at = c then begin
          flip sim site k;
          pending.(word_of k) <- pending.(word_of k) lxor bit_of k
        end)
      upsets;
    List.iter
      (fun (f, wk, bit, rate, st) ->
        f.Slab.flip.(wk) <- (if Random.State.float st 1.0 < rate then bit else 0))
      coins;
    v.v_settle c;
    if !n_unres > 0 then
      Array.iter
        (fun (output, osite) ->
          let g = golden (Slab.peek_word sim osite 0) in
          for w = 0 to words - 1 do
            let diff = (Slab.peek_word sim osite w lxor g) land unres.(w) in
            if diff <> 0 then begin
              iter_lanes
                (fun k ->
                  cls.(k) <- Some (Detected { latency = c - strikes.(k); cycle = c; output });
                  decr n_unres)
                w diff;
              unres.(w) <- unres.(w) lxor diff
            end
          done)
        v.v_compared;
    Array.iteri
      (fun si (_, ssite) ->
        for w = 0 to words - 1 do
          status_acc.(si).(w) <- status_acc.(si).(w) lor v.v_word c ssite w
        done)
      p.status_sites;
    (* fixed point: the inputs stay constant to the end of the window
       and neither the golden lane nor the lane latches a change, so
       every later cycle repeats this one; an intermittent or a pending
       upset could still break it.  One latch pass over the view's dffs
       (a cone chunk ticks stale dffs outside it too) finds the lanes
       that latch. *)
    Array.fill fixed 0 words 0;
    if p.droppable && c >= p.const_from && c + 1 < p.window && golden_quiet c then begin
      for w = 0 to words - 1 do
        fixed.(w) <- unres.(w) land lnot (pending.(w) lor inter_lanes.(w))
      done;
      if any fixed then begin
        Slab.latch_lanes sim ~dffs:v.v_lanes.l_dffs ~srcs:v.v_lanes.l_inputs found;
        for w = 0 to words - 1 do
          fixed.(w) <- fixed.(w) land lnot found.(w)
        done
      end
    end;
    Slab.tick sim;
    (* reconverged: a fired upset whose every state site again equals
       the golden lane's, so the lane is the golden run from here on.
       An SEU lane carries no force, so its constants equal the golden
       lane's: one diff pass over the view's dffs decides. *)
    if p.droppable then
      for w = 0 to words - 1 do
        reconv.(w) <- unres.(w) land seu_lanes.(w) land lnot pending.(w)
      done;
    if any fixed || any reconv then begin
      Slab.diff_lanes sim v.v_lanes.l_dffs latent;
      for w = 0 to words - 1 do
        fixed.(w) <- fixed.(w) lor (reconv.(w) land lnot latent.(w))
      done;
      resolve fixed
    end;
    (* drop at half: at most half the starting lanes still unresolved *)
    if p.droppable && c + 1 < p.window && 2 * !n_unres <= count then stop := c;
    cycle := c + 1
  done;
  (* end of the window: every lane still unresolved gets its verdict
     from the final state *)
  if !stop < 0 && !n_unres > 0 then begin
    Slab.diff_lanes sim v.v_lanes.l_dffs latent;
    resolve (Array.make words (-1))
  end;
  let verdict k classification =
    let fault = p.faults.(job.j_faults.(k)) and wk = word_of k and bit = bit_of k in
    let status =
      Array.to_list
        (Array.mapi (fun si (name, _) -> (name, status_acc.(si).(wk) land bit <> 0)) p.status_sites)
    in
    { fault; name = fault_name p.nl fault; classification; status }
  in
  (* a dropped chunk hands its unresolved lanes to the next round *)
  let survivors = if !n_unres > 0 then survivors p v sim job ~unres ~stop:!stop cls else [] in
  Slab.clear_forces sim;
  ( {
      lane_faults = job.j_faults;
      lane_verdicts = Array.mapi (fun k -> function Some c -> Some (verdict k c) | None -> None) cls;
      simulated = !cycle - job.j_start;
      coned = v.v_cone;
    },
    survivors )

(* Round 0: chunk [c] of [ch] starts at its earliest upset, from the
   prefix's golden state there.  The trace costs one more golden run, so
   it is recorded only for two or more chunks, one of which runs as a
   cone (the walks stop at the first that does, and each past the bound). *)
let first_round p ch exemplar =
  let starts =
    Array.init ch.Scheduler.count (fun c ->
        let lo, hi = ch.Scheduler.bounds c in
        let first = ref (p.window - 1) in
        for fi = lo to hi - 1 do
          first := min !first (strike p.faults.(fi))
        done;
        if p.droppable then max 0 !first else 0)
  in
  let traced =
    p.window > 0 && ch.Scheduler.count >= 2
    && Slab.fused_gates exemplar = 0
    && Seq.exists
         (fun c ->
           let lo, hi = ch.Scheduler.bounds c in
           let sites = Array.init (hi - lo) (fun x -> site_of p.faults.(lo + x)) in
           Option.is_some (Slab.fanout_cone exemplar sites))
         (Seq.init ch.Scheduler.count Fun.id)
  in
  (starts, traced)

let tally p ~stimulus ~prefix_cycles outcomes =
  let verdicts =
    match List.find_map (fun o -> Array.find_map Fun.id o.lane_verdicts) outcomes with
    | None -> []
    | Some v0 ->
      (* every fault is resolved by exactly one chunk *)
      let by_fault = Array.make (Array.length p.faults) v0 in
      List.iter
        (fun o ->
          Array.iteri
            (fun k -> function Some v -> by_fault.(o.lane_faults.(k)) <- v | None -> ())
            o.lane_verdicts)
        outcomes;
      Array.to_list by_fault
  in
  let count is =
    List.fold_left (fun n v -> if is v.classification then n + 1 else n) 0 verdicts
  in
  {
    netlist = p.nl;
    stimulus;
    cycles = p.window;
    total = Array.length p.faults;
    detected = count (function Detected _ -> true | _ -> false);
    latent = count (function Latent -> true | _ -> false);
    masked = count (function Masked -> true | _ -> false);
    verdicts;
    chunk_cycles =
      List.fold_left (fun acc o -> acc + o.simulated) prefix_cycles outcomes;
    chunks = List.length outcomes;
    cone_chunks = List.length (List.filter (fun o -> o.coned) outcomes);
  }

let run ?scheduler ?cache ?domains ?(engine = `Wide) ?gating:_
    ?(status_outputs = []) ?deadline ?retry ?admission ?chaos
    nl ~faults ~stimulus ~cycles =
  (match (scheduler, domains) with
  | Some _, Some _ ->
    invalid_arg "Campaign.run: pass either ?scheduler or ?domains, not both"
  | _ -> ());
  let p = plan nl ~faults ~stimulus ~cycles ~status_outputs in
  let k =
    match engine with
    | `Wide -> 1
    | `Slab k when k < 1 -> invalid_arg "Campaign.run: slab k must be >= 1"
    | `Slab k -> k
  in
  (* Resilience knobs.  The deadline is a wall budget over the whole
     campaign: each round's job carries what is left of it, and the
     retry policy rides on the job.  The admission controller may
     degrade a request to fewer words (fewer faults per pass, same
     results) before it would shed the campaign outright. *)
  let t0 = Resilience.now () in
  let remaining () =
    Option.map (fun d -> d -. (Resilience.now () -. t0)) deadline
  in
  let acquired =
    match admission with
    | None -> None
    | Some a -> (
      match Resilience.acquire a ~lanes:(Packed.lanes * k) with
      | `Granted g -> Some (a, g)
      | `Shed -> raise (Resilience.Shed { job = "campaign" }))
  in
  (* degraded, not rejected *)
  let words =
    match acquired with Some (_, g) -> max 1 (min k (g / Packed.lanes)) | None -> k
  in
  let prefix_cycles, outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter (fun (a, g) -> Resilience.release a ~lanes:g) acquired)
      (fun () ->
        (* lane 0 of every chunk is the golden run, hence [~reserved:1] *)
        let ch = Scheduler.chunking ~reserved:1 ~lanes:(Packed.lanes * words) (Array.length p.faults) in
        let on_team sch =
          (* engines compile without the index-changing passes, fused
             only for SEUs (see the header); [?cache] serves warm
             replicas *)
          let fuse =
            Array.for_all (function Seu _ -> true | Stuck_at _ | Intermittent _ -> false) p.faults
          in
          let exemplar =
            match cache with
            | Some c -> Cache.slab c ~k:words ~relayout:false ~fuse nl
            | None -> Slab.of_program (Kernel.compile ~k:words ~relayout:false ~fuse nl)
          in
          let sh = Sharded.of_base ~scheduler:sch exemplar in
          (* tasks [first, first + n) as one job, on the claiming members'
             replicas, each with its own chaos fate (a retry re-rolls it;
             a task depends on its job alone, so a rerun is identical) *)
          let exec ~first n task =
            Scheduler.run_tasks sch ~name:"campaign" ?deadline:(remaining ())
              ?retry n (fun ~member c ->
                Option.iter (fun pl -> Chaos.inject pl ~label:"campaign" ~task:(first + c)) chaos;
                task (Sharded.replica sh member) c)
          in
          let starts, traced = first_round p ch exemplar in
          let whole = lane_sites p exemplar p.all_state in
          (* a round that starts at power-up needs no prefix task *)
          let prefix = ref ([| p.power_up |], None, 0) in
          if traced || Array.exists (fun s -> s > 0) starts then
            exec ~first:0 1 (fun sim _ -> prefix := golden_prefix p sim ~starts ~traced);
          let snaps, golden_trace, prefix_cycles = !prefix in
          (* each round runs its jobs, then packs their survivors *)
          let rec rounds first jobs acc =
            let n = Array.length jobs in
            if n = 0 then acc
            else begin
              let out =
                Array.make n ({ lane_faults = [||]; lane_verdicts = [||]; simulated = 0; coned = false }, [])
              in
              exec ~first n (fun sim c -> out.(c) <- run_chunk p golden_trace whole sim jobs.(c));
              let outcomes, survivors = List.split (Array.to_list out) in
              rounds (first + n)
                (pack ~per_chunk:ch.Scheduler.per_chunk (List.concat survivors))
                (outcomes @ acc)
            end
          in
          ( prefix_cycles,
            rounds (Bool.to_int (prefix_cycles > 0))
              (Array.init ch.Scheduler.count (fun c ->
                   let lo, hi = ch.Scheduler.bounds c in
                   {
                     j_faults = Array.init (hi - lo) (fun k -> lo + k);
                     j_start = starts.(c);
                     j_golden = snaps.(starts.(c));
                     j_diff = [||];
                   }))
              [] )
        in
        if ch.Scheduler.count = 0 then (0, [])
        else
          match scheduler with
          | Some sch -> on_team sch
          | None ->
            let domains = if ch.Scheduler.count = 1 then Some 1 else domains in
            let sch = Scheduler.create ?domains () in
            Fun.protect
              ~finally:(fun () -> Scheduler.shutdown sch)
              (fun () -> on_team sch))
  in
  tally p ~stimulus ~prefix_cycles outcomes

let replay report fault =
  let status_outputs =
    match report.verdicts with
    | v :: _ -> List.map fst v.status
    | [] -> []
  in
  let r =
    run ~status_outputs report.netlist ~faults:[ fault ]
      ~stimulus:report.stimulus ~cycles:report.cycles
  in
  List.hd r.verdicts

(* Summaries and renderers. *)

let coverage_ratio r =
  if r.total = 0 then 1.0 else float_of_int r.detected /. float_of_int r.total

let mean_latency r =
  let n = ref 0 and sum = ref 0 in
  List.iter
    (fun v ->
      match v.classification with
      | Detected { latency; _ } ->
        incr n;
        sum := !sum + latency
      | Latent | Masked -> ())
    r.verdicts;
  if !n = 0 then None else Some (float_of_int !sum /. float_of_int !n)

let class_string = function
  | Detected _ -> "detected"
  | Latent -> "latent"
  | Masked -> "masked"

let status_suffix v =
  let on = List.filter_map (fun (n, b) -> if b then Some n else None) v.status in
  if on = [] then "" else " [" ^ String.concat "," on ^ "]"

let verdict_to_string v =
  (match v.classification with
  | Detected { latency; cycle; output } ->
    Printf.sprintf "detected %s: latency %d at cycle %d via %s" v.name latency
      cycle output
  | Latent -> Printf.sprintf "latent   %s" v.name
  | Masked -> Printf.sprintf "masked   %s" v.name)
  ^ status_suffix v

let summary_string r =
  Printf.sprintf
    "fault campaign: %d faults over %d cycles: %d detected (%.1f%%), %d \
     latent, %d masked"
    r.total r.cycles r.detected
    (100.0 *. coverage_ratio r)
    r.latent r.masked

(* Both reports are rendered into one [Buffer]: a dense campaign has
   tens of thousands of verdicts, and a [String.concat] over a list of
   them builds the list and copies every byte once more. *)
let to_string r =
  let buf = Buffer.create (64 * (r.total + 1)) in
  Buffer.add_string buf (summary_string r);
  List.iter
    (fun v ->
      Buffer.add_string buf "\n  ";
      Buffer.add_string buf (verdict_to_string v))
    r.verdicts;
  Buffer.contents buf

(* JSON: the [hydra faults --json] contract, pinned by a test.  Verdicts
   are written straight into the report's buffer, without a [Printf]
   format or an intermediate string per verdict. *)

let js = Hydra_analyze.Diagnostic.json_string

let add_verdict_json buf v =
  let add = Buffer.add_string buf in
  let int i = add (string_of_int i) in
  add "{\"name\":";
  add (js v.name);
  (match v.fault with
  | Stuck_at { site; value } ->
    add ",\"model\":\"stuck_at\",\"site\":";
    int site;
    add (if value then ",\"value\":1" else ",\"value\":0")
  | Seu { site; at_cycle } ->
    add ",\"model\":\"seu\",\"site\":";
    int site;
    add ",\"at_cycle\":";
    int at_cycle
  | Intermittent { site; rate; seed } ->
    Printf.bprintf buf
      ",\"model\":\"intermittent\",\"site\":%d,\"rate\":%g,\"seed\":%d" site
      rate seed);
  (match v.classification with
  | Detected { latency; cycle; output } ->
    add ",\"class\":\"detected\",\"latency\":";
    int latency;
    add ",\"cycle\":";
    int cycle;
    add ",\"output\":";
    add (js output)
  | Latent -> add ",\"class\":\"latent\""
  | Masked -> add ",\"class\":\"masked\"");
  if v.status <> [] then begin
    add ",\"status\":{";
    List.iteri
      (fun i (n, b) ->
        if i > 0 then add ",";
        add (js n);
        add ":";
        add (string_of_bool b))
      v.status;
    add "}"
  end;
  add "}"

let verdict_to_json v =
  let buf = Buffer.create 128 in
  add_verdict_json buf v;
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create (128 * (r.total + 1)) in
  Printf.bprintf buf
    "{\"version\":1,\"total\":%d,\"detected\":%d,\"latent\":%d,\"masked\":%d,\"cycles\":%d,\"verdicts\":["
    r.total r.detected r.latent r.masked r.cycles;
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      add_verdict_json buf v)
    r.verdicts;
  Buffer.add_string buf "]}";
  Buffer.contents buf
