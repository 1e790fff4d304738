(* Lane-parallel fault-injection campaigns.

   The robustness question the paper's section 4.2 motivates — how does
   the design behave under conditions you did not intend? — answered at
   engine speed: lane 0 of a word-parallel engine runs the golden
   circuit while every other lane runs a distinct fault, injected at
   runtime through per-lane force masks instead of per-fault netlist
   rewriting and recompilation.  The engine is a K-word {!Slab}: 61
   faults per pass at the default k = 1 ([`Wide]), 62*K - 1 with
   [~engine:(`Slab k)].  Fault lists larger than one engine pass chunk
   over {!Scheduler.run_tasks}, so the peak rate is (lanes - 1) x
   domains faults per settle pass.  A chunk starts at its first upset
   and drops its faults part-way once their verdicts are final (see
   "Fault dropping" below), and a chunk whose faults can reach only a
   small part of the circuit settles just that part (see "Cone
   restriction").

   Every fault is classified against the golden lane:
   - detected: an observable output diverged (with detection latency),
   - latent: outputs never diverged but some dff's final state did,
   - masked: no divergence at all.

   The engines are built with [~optimize:false ~relayout:false
   ~fuse:false] so component indices in force sites match the caller's
   netlist unchanged. *)

module Netlist = Hydra_netlist.Netlist
module Packed = Hydra_core.Packed
module Slab = Hydra_engine.Slab
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

let all_stuck_at nl =
  let fs = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
      | Netlist.Dffc _ ->
        fs :=
          Stuck_at { site = i; value = true }
          :: Stuck_at { site = i; value = false }
          :: !fs
      | Netlist.Inport _ | Netlist.Outport _ | Netlist.Constant _ -> ())
    nl.Netlist.components;
  List.rev !fs

let dff_sites nl =
  let ds = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with Netlist.Dffc _ -> ds := i :: !ds | _ -> ())
    nl.Netlist.components;
  List.rev !ds

let all_seu ?(at_cycle = 0) nl =
  List.map (fun site -> Seu { site; at_cycle }) (dff_sites nl)

let seu_sweep nl ~cycles =
  List.concat_map
    (fun site -> List.init cycles (fun c -> Seu { site; at_cycle = c }))
    (dff_sites nl)

(* Stimulus: one bool stream per input port, consumed cycle by cycle
   (missing ports idle at false, short streams pad with false). *)

let stimulus_of_vectors ?(cycles_per_vector = 1) nl vectors =
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
   function, [resolve].  A chunk whose unresolved lanes fall to half its
   starting lanes (or fewer) stops at that cycle boundary instead of
   simulating on to the end of the window, and the survivors move to the
   next round, where survivors sharing a stop cycle are packed into full
   chunks that resume from the migrated state.  The state that carries
   across a cycle boundary lives in the dffs and — because a flip mask
   on a site nothing re-drives accumulates — the constants; every other
   component is recomputed by the next settle.

   Round 0 skips the fault-free prefix too: a chunk of SEUs starts at
   its earliest upset, from golden snapshots that one shared prefix run
   takes before the round. *)

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

let run ?scheduler ?cache ?domains ?(engine = `Wide) ?gating:_
    ?(status_outputs = []) ?deadline ?retry ?admission ?chaos
    nl ~faults ~stimulus ~cycles =
  (match (scheduler, domains) with
  | Some _, Some _ ->
    invalid_arg "Campaign.run: pass either ?scheduler or ?domains, not both"
  | _ -> ());
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
  (* one broadcast word per cycle per declared input *)
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
  let compare_sites =
    Array.of_list
      (List.filter
         (fun (name, _) -> not (List.mem name status_outputs))
         nl.Netlist.outputs)
  in
  let dffs = Array.of_list (dff_sites nl) in
  let state_sites =
    let consts = ref [] in
    Array.iteri
      (fun i c ->
        match c with Netlist.Constant _ -> consts := i :: !consts | _ -> ())
      nl.Netlist.components;
    Array.append dffs (Array.of_list (List.rev !consts))
  in
  let power_up =
    Array.map
      (fun site ->
        match nl.Netlist.components.(site) with
        | Netlist.Dffc b | Netlist.Constant b -> -Bool.to_int b
        | _ -> assert false)
      state_sites
  in
  (* a status flag must be sampled over the whole window on every lane,
     detected or not, so status campaigns never drop, resolve early or
     skip the prefix *)
  let droppable = status_sites = [||] in
  let faults_arr = Array.of_list faults in
  let nfaults = Array.length faults_arr in
  let results = Array.make (max nfaults 1) None in
  let chunk_cycles = ref 0 and chunks = ref 0 and cone_chunks = ref 0 in
  let emit fi classification status =
    let fault = faults_arr.(fi) in
    results.(fi) <-
      Some { fault; name = fault_name nl fault; classification; status }
  in
  let ndffs = Array.length dffs and nstate = Array.length state_sites in
  let dff_inputs = Array.map (fun d -> nl.Netlist.fanin.(d).(0)) dffs in
  (* the first cycle from which every input word stays constant to the
     end of the window *)
  let const_from =
    Array.fold_left
      (fun acc (_, svs) ->
        let c = ref (cycles - 1) in
        while !c > 0 && svs.(!c - 1) = svs.(cycles - 1) do
          decr c
        done;
        max acc !c)
      0 streams
  in
  let drive sim c =
    for i = 0 to Array.length streams - 1 do
      let site, svs = streams.(i) in
      let v = svs.(c) in
      for w = 0 to Slab.k sim - 1 do
        Slab.poke_word sim site w v
      done
    done
  in
  (* every state site at the golden word [golden.(i)], no forces; a
     settle recomputes every other component from the state, the inputs
     and the forces *)
  let load sim golden =
    Slab.clear_forces sim;
    Array.iteri
      (fun i g ->
        for w = 0 to Slab.k sim - 1 do
          Slab.poke_word sim state_sites.(i) w g
        done)
      golden
  in
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

     The trace holds every component's settled golden bit at each
     cycle ({!Slab.record_row}), and [quiet.(c)] tells whether the
     golden run latches no change at cycle [c]'s tick.  The prefix task
     records it, running to the end of the window, when some round-0
     chunk of a campaign with two or more runs as a cone. *)
  let trace = ref None and quiet = ref [||] in
  (* component [comp]'s golden word at cycle [c], from the trace *)
  let gold c comp =
    match !trace with
    | Some tr when Slab.golden_bit tr c comp -> Packed.lane_mask
    | _ -> 0
  in
  (* The shared fault-free prefix: the golden state at the top of every
     cycle [c <= last] with [needed.(c)], from power-up; with a trace to
     record, the run goes on to the end of the window. *)
  let golden_prefix sim needed snaps last =
    load sim power_up;
    let snap c =
      if c <= last && needed.(c) then
        snaps.(c) <-
          Array.map (fun site -> -(Slab.peek_word sim site 0 land 1)) state_sites
    in
    let upto = if Option.is_some !trace then cycles else last in
    for c = 0 to upto - 1 do
      snap c;
      drive sim c;
      Slab.settle sim;
      Option.iter (fun tr -> Slab.record_row sim tr c) !trace;
      Slab.tick sim
    done;
    snap upto;
    if Option.is_some !trace then
      quiet :=
        Array.init cycles (fun c ->
            Array.for_all2 (fun d i -> gold c d = gold c i) dffs dff_inputs)
  in
  let all_state = Array.init nstate Fun.id in
  let run_chunk sim job =
    (* fault j_faults.(k) rides global lane k+1 — word (k+1)/62, bit
       (k+1) mod 62 — while word 0 bit 0 stays golden *)
    let words = Slab.k sim in
    let lane_faults = job.j_faults in
    let count = Array.length lane_faults in
    (* with a trace, the chunk's cone, if small enough (see "Cone
       restriction") *)
    let cone =
      if Option.is_none !trace then None
      else
        let seeds =
          Array.append
            (Array.map (fun fi -> site_of faults_arr.(fi)) lane_faults)
            (Array.map (fun i -> state_sites.(i)) (Array.concat (Array.to_list job.j_diff)))
        in
        Slab.fanout_cone sim seeds
    in
    let inside site = match cone with None -> true | Some c -> Slab.in_cone sim c site in
    (* the state sites the chunk reads (their indices, dffs first, then
       the sites with their dff inputs), and its compared outputs *)
    let st_idx, st_sites, st_inputs, compare_sites =
      match cone with
      | None -> (all_state, state_sites, dff_inputs, compare_sites)
      | Some _ ->
        let keep f a = Array.of_list (List.filter f (Array.to_list a)) in
        let idx = keep (fun i -> inside state_sites.(i)) all_state in
        let cone_dffs = keep (fun i -> i < ndffs) idx in
        ( idx,
          Array.map (fun i -> state_sites.(i)) idx,
          Array.map (fun i -> dff_inputs.(i)) cone_dffs,
          keep (fun (_, o) -> inside o) compare_sites )
    in
    let ndffs = Array.length st_inputs and nstate = Array.length st_idx in
    let word_of k = (k + 1) / Packed.lanes in
    let bit_of k = 1 lsl ((k + 1) mod Packed.lanes) in
    let live = Array.make words 0 in
    for k = 0 to count - 1 do
      live.(word_of k) <- live.(word_of k) lor bit_of k
    done;
    let start = job.j_start in
    (* migrated state: golden words on every state site, then each
       lane's own differing bits *)
    load sim job.j_golden;
    Array.iteri
      (fun k diff ->
        let wk = word_of k and bit = bit_of k in
        Array.iter
          (fun i ->
            let site = state_sites.(i) in
            Slab.poke_word sim site wk (Slab.peek_word sim site wk lxor bit))
          diff)
      job.j_diff;
    (* a fault's masks accumulate in a force record (one word per engine
       word) installed once; the slab keeps the arrays by reference, so
       an intermittent fault re-seeds its flip mask per cycle in place *)
    let forces = ref [] and seus = ref [] and inters = ref [] in
    let force site =
      {
        Slab.f_site = site;
        force0 = Array.make words 0;
        force1 = Array.make words 0;
        flip = Array.make words 0;
      }
    in
    (* per word: SEU lanes, those whose upset is still to fire inside the
       window, and intermittent lanes *)
    let seu_lanes = Array.make words 0 in
    let pending = Array.make words 0 in
    let inter_lanes = Array.make words 0 in
    (* stuck-at faults on one site (adjacent in [all_stuck_at] order)
       share one force record: their lanes are disjoint *)
    let last_stuck = ref None in
    for k = 0 to count - 1 do
      let wk = word_of k and bit = bit_of k in
      match faults_arr.(lane_faults.(k)) with
      | Stuck_at { site; value } ->
        let p =
          match !last_stuck with
          | Some p when p.Slab.f_site = site -> p
          | _ ->
            let p = force site in
            forces := p :: !forces;
            last_stuck := Some p;
            p
        in
        if value then p.Slab.force1.(wk) <- p.Slab.force1.(wk) lor bit
        else p.Slab.force0.(wk) <- p.Slab.force0.(wk) lor bit
      | Seu { site; at_cycle } ->
        seu_lanes.(wk) <- seu_lanes.(wk) lor bit;
        (* an upset before [start] is already in the migrated state, one
           past the window never fires *)
        if at_cycle >= start && at_cycle < cycles then begin
          seus := (at_cycle, site, wk, bit) :: !seus;
          pending.(wk) <- pending.(wk) lor bit
        end
      | Intermittent { site; rate; seed } ->
        inter_lanes.(wk) <- inter_lanes.(wk) lor bit;
        let p = force site in
        forces := p :: !forces;
        (* seeded per fault, not per chunk, so results are independent of
           how faults land on chunks and members; a resumed chunk replays
           the draws of the cycles already simulated *)
        let st = Random.State.make [| seed; site |] in
        for _ = 1 to start do
          ignore (Random.State.float st 1.0)
        done;
        inters := (p, wk, bit, rate, st) :: !inters
    done;
    Slab.set_forces sim (Array.of_list (List.rev !forces));
    let seus = !seus and inters = !inters in
    let injection k =
      match faults_arr.(lane_faults.(k)) with
      | Seu { at_cycle; _ } -> at_cycle
      | Stuck_at _ | Intermittent _ -> 0
    in
    let verdict = Array.make (max count 1) None in
    let unres = Array.copy live in
    let n_unres = ref count in
    let status_acc = Array.make_matrix (max (Array.length status_sites) 1) words 0 in
    (* [search wit n w m bits] is the set of lanes in [m] (engine word
       [w]) for which [bits i w] has a set bit at some state site
       [i < n].  [wit] remembers, per global lane, the site that last
       showed one: it is tried first, and the sweep over the sites stops
       once every lane of [m] is found, so a lane that stays different
       costs one probe per call and only a lane that shows nothing costs
       a full sweep. *)
    let search wit n w m bits =
      let found = ref 0 in
      iter_lanes
        (fun k ->
          let i = wit.(k + 1) in
          if i < n then found := !found lor (bits i w land bit_of k))
        w m;
      let rest = ref (m land lnot !found) and i = ref 0 in
      while !rest <> 0 && !i < n do
        let x = bits !i w land !rest in
        if x <> 0 then begin
          iter_lanes (fun k -> wit.(k + 1) <- !i) w x;
          found := !found lor x;
          rest := !rest lxor x
        end;
        incr i
      done;
      !found
    in
    (* lanes whose state site [i] differs from the golden lane's *)
    let differs i w =
      let site = st_sites.(i) in
      Slab.peek_word sim site w lxor -(Slab.peek_word sim site 0 land 1)
    in
    (* after a settle: lanes whose dff [i] latches a new value at the tick *)
    let latches i w =
      Slab.peek_word sim st_sites.(i) w lxor Slab.peek_word sim st_inputs.(i) w
    in
    (* witnesses by global lane, the golden lane's at index 0 *)
    let diff_wit = Array.make (Packed.lanes * words) 0 in
    let latch_wit = Array.make (Packed.lanes * words) 0 in
    (* The one verdict of an undetected lane whose outputs can no longer
       diverge from the golden lane's — at the end of the window, or
       earlier by reconvergence or a fixed point: latent if some dff's
       state differs from the golden lane's, masked otherwise.  Only the
       state counts — an upset that the circuit heals (e.g. an ECC
       reload) is masked. *)
    let resolve w mask =
      let m = mask land unres.(w) in
      if m <> 0 then begin
        let latent = search diff_wit ndffs w m differs in
        iter_lanes
          (fun k ->
            verdict.(k) <-
              Some (if latent land bit_of k <> 0 then Latent else Masked);
            decr n_unres)
          w m;
        unres.(w) <- unres.(w) lxor m
      end
    in
    let fixed = Array.make words 0 in
    let stop = ref (-1) and cycle = ref start in
    while !cycle < cycles && !stop < 0 do
      let c = !cycle in
      drive sim c;
      List.iter
        (fun (at, site, wk, bit) ->
          if at = c then begin
            Slab.poke_word sim site wk (Slab.peek_word sim site wk lxor bit);
            pending.(wk) <- pending.(wk) lxor bit
          end)
        seus;
      List.iter
        (fun (p, wk, bit, rate, st) ->
          p.Slab.flip.(wk) <- (if Random.State.float st 1.0 < rate then bit else 0))
        inters;
      (match cone with
      | Some cn -> Slab.settle_cone sim cn (Option.get !trace) c
      | None -> Slab.settle sim);
      (if !n_unres > 0 then
         for o = 0 to Array.length compare_sites - 1 do
           let oname, osite = compare_sites.(o) in
           (* golden is word 0, bit 0, sign-extended across every word:
              set bits = lanes that differ from the golden lane *)
           let gext = -(Slab.peek_word sim osite 0 land 1) in
           for w = 0 to words - 1 do
             let diff = (Slab.peek_word sim osite w lxor gext) land unres.(w) in
             if diff <> 0 then begin
               iter_lanes
                 (fun k ->
                   verdict.(k) <-
                     Some
                       (Detected
                          { latency = c - injection k; cycle = c; output = oname });
                   decr n_unres)
                 w diff;
               unres.(w) <- unres.(w) lxor diff
             end
           done
         done);
      for si = 0 to Array.length status_sites - 1 do
        let ssite = snd status_sites.(si) in
        for w = 0 to words - 1 do
          status_acc.(si).(w) <-
            status_acc.(si).(w)
            lor
            if inside ssite then Slab.peek_word sim ssite w
            else gold c ssite
        done
      done;
      (* fixed point: the inputs stay constant to the end of the window
         and neither the golden lane nor the lane latches a change, so
         every later cycle repeats this one; an intermittent or a pending
         upset could still break it *)
      Array.fill fixed 0 words 0;
      if droppable && c >= const_from && c + 1 < cycles
         && (match cone with
            | Some _ -> !quiet.(c)
            | None -> search latch_wit ndffs 0 1 latches = 0)
      then
        for w = 0 to words - 1 do
          let m = unres.(w) land lnot (pending.(w) lor inter_lanes.(w)) in
          fixed.(w) <- m land lnot (search latch_wit ndffs w m latches)
        done;
      Slab.tick sim;
      (* reconverged: a fired upset whose every state site again equals
         the golden lane's, so the lane is the golden run from here on *)
      for w = 0 to words - 1 do
        let r =
          if droppable then unres.(w) land seu_lanes.(w) land lnot pending.(w)
          else 0
        in
        resolve w
          (fixed.(w) lor (r land lnot (search diff_wit nstate w r differs)))
      done;
      (* drop at half: at most half the starting lanes still unresolved *)
      if droppable && c + 1 < cycles && 2 * !n_unres <= count then stop := c;
      cycle := c + 1
    done;
    (* end of the window: every lane still unresolved gets its verdict
       from the final state *)
    if !stop < 0 then
      for w = 0 to words - 1 do
        resolve w (-1)
      done;
    let status_of wk bit =
      Array.to_list
        (Array.mapi
           (fun si (sname, _) -> (sname, status_acc.(si).(wk) land bit <> 0))
           status_sites)
    in
    for k = 0 to count - 1 do
      match verdict.(k) with
      | Some cls -> emit lane_faults.(k) cls (status_of (word_of k) (bit_of k))
      | None -> ()
    done;
    let survivors =
      if !n_unres > 0 then begin
        (* dropped: hand the unresolved lanes' state to the next round *)
        let golden =
          Array.map
            (fun site ->
              if inside site then -(Slab.peek_word sim site 0 land 1)
              else -(gold (!stop + 1) site land 1))
            state_sites
        in
        let diffs = Array.make count [] in
        Array.iter
          (fun i ->
            let site = state_sites.(i) and gext = golden.(i) in
            for w = 0 to words - 1 do
              iter_lanes
                (fun k -> diffs.(k) <- i :: diffs.(k))
                w
                ((Slab.peek_word sim site w lxor gext) land unres.(w))
            done)
          st_idx;
        let acc = ref [] in
        for k = count - 1 downto 0 do
          if Option.is_none verdict.(k) then
            acc :=
              {
                s_fault = lane_faults.(k);
                s_stop = !stop;
                s_golden = golden;
                s_diff = Array.of_list diffs.(k);
              }
              :: !acc
        done;
        !acc
      end
      else []
    in
    Slab.clear_forces sim;
    (survivors, !cycle - start, Option.is_some cone)
  in
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
  let k =
    match acquired with
    | Some (_, g) when g < Packed.lanes * k ->
      max 1 (g / Packed.lanes)  (* degraded, not rejected *)
    | _ -> k
  in
  Fun.protect
    ~finally:(fun () ->
      match acquired with
      | Some (a, g) -> Resilience.release a ~lanes:g
      | None -> ())
    (fun () ->
      (* lane 0 of every chunk is the golden run, hence [~reserved:1] *)
      let ch = Scheduler.chunking ~reserved:1 ~lanes:(Packed.lanes * k) nfaults in
      let nchunks = ch.Scheduler.count in
      (* round 0 covers the caller's list in order, after the golden
         prefix task when some chunk starts past cycle 0; each later
         round packs the previous round's survivors.  Task ids run on
         across the prefix and the rounds, so every task rolls its own
         chaos fate. *)
      let first_task = ref 0 in
      let rounds exemplar exec =
        let rec go jobs =
          let n = Array.length jobs in
          if n > 0 then begin
            let out = Array.make n ([], 0, false) in
            exec n (fun sim c -> out.(c) <- run_chunk sim jobs.(c));
            first_task := !first_task + n;
            chunks := !chunks + n;
            Array.iter
              (fun (_, cs, coned) ->
                chunk_cycles := !chunk_cycles + cs;
                if coned then incr cone_chunks)
              out;
            go
              (pack ~per_chunk:ch.Scheduler.per_chunk
                 (List.concat_map (fun (s, _, _) -> s) (Array.to_list out)))
          end
        in
        (* a round-0 chunk starts at its earliest injection cycle, from
           the golden state there: one shared prefix task simulates the
           fault-free run up to the latest such cycle *)
        let starts =
          Array.init nchunks (fun c ->
              let lo, hi = ch.Scheduler.bounds c in
              let s = ref (if droppable then max_int else 0) in
              for fi = lo to hi - 1 do
                s :=
                  min !s
                    (match faults_arr.(fi) with
                    | Seu { at_cycle; _ } -> min at_cycle (cycles - 1)
                    | Stuck_at _ | Intermittent _ -> 0)
              done;
              max 0 !s)
        in
        let last = Array.fold_left max 0 starts in
        let snaps = Array.make (last + 1) power_up in
        (* the trace costs one more full-width golden run, so it is
           recorded only for two or more round-0 chunks, one of which
           runs as a cone (the walks stop at the first that does, and
           each stops past the bound) *)
        let traced =
          cycles > 0 && nchunks >= 2
          && Seq.exists
               (fun c ->
                 let lo, hi = ch.Scheduler.bounds c in
                 let sites = Array.init (hi - lo) (fun x -> site_of faults_arr.(lo + x)) in
                 Option.is_some (Slab.fanout_cone exemplar sites))
               (Seq.init nchunks Fun.id)
        in
        if last > 0 || traced then begin
          let needed = Array.make (last + 1) false in
          Array.iter (fun s -> needed.(s) <- true) starts;
          if traced then trace := Some (Slab.trace exemplar ~cycles);
          exec 1 (fun sim _ -> golden_prefix sim needed snaps last);
          first_task := !first_task + 1;
          chunk_cycles := !chunk_cycles + if traced then cycles else last
        end;
        go
          (Array.init nchunks (fun c ->
               let lo, hi = ch.Scheduler.bounds c in
               {
                 j_faults = Array.init (hi - lo) (fun k -> lo + k);
                 j_start = starts.(c);
                 j_golden = snaps.(starts.(c));
                 j_diff = [||];
               }))
      in
      (* engines always compile with the identity passes (force sites
         are caller-netlist component indices); [?cache] serves warm
         replicas *)
      let base () =
        match cache with
        | Some c ->
          Cache.slab c ~k ~optimize:false ~relayout:false ~fuse:false nl
        | None -> Slab.create ~k ~optimize:false ~relayout:false ~fuse:false nl
      in
      (* each round is one job on the team, its chunks running on the
         claiming member's replica; a chaos injection point dresses
         every chunk (a retry re-rolls its fate, and a chunk recomputes
         its result slice from its job alone, so a rerun is
         bit-identical) *)
      let on_team sch =
        let exemplar = base () in
        let sh = Sharded.of_base ~scheduler:sch exemplar in
        rounds exemplar (fun n task ->
            Scheduler.run_tasks sch ~name:"campaign" ?deadline:(remaining ())
              ?retry n (fun ~member c ->
                (match chaos with
                | Some p ->
                  Chaos.inject p ~label:"campaign" ~task:(!first_task + c)
                | None -> ());
                task (Sharded.replica sh member) c))
      in
      if nchunks > 0 then
        match scheduler with
        | Some sch -> on_team sch
        | None ->
          let domains = if nchunks = 1 then Some 1 else domains in
          let sch = Scheduler.create ?domains () in
          Fun.protect
            ~finally:(fun () -> Scheduler.shutdown sch)
            (fun () -> on_team sch));
  let verdicts =
    List.init nfaults (fun i ->
        match results.(i) with
        | Some v -> v
        | None -> assert false (* every fault is classified by some round *))
  in
  let count p =
    List.length (List.filter (fun v -> p v.classification) verdicts)
  in
  {
    netlist = nl;
    stimulus;
    cycles;
    total = nfaults;
    detected = count (function Detected _ -> true | _ -> false);
    latent = count (function Latent -> true | _ -> false);
    masked = count (function Masked -> true | _ -> false);
    verdicts;
    chunk_cycles = !chunk_cycles;
    chunks = !chunks;
    cone_chunks = !cone_chunks;
  }

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
