(* Combinational equivalence checking.

   Three methods, strongest first:
   - [bdd_equiv]: symbolic — execute both circuits at a BDD semantics (one
     more instance of the paper's "apply the specification to a different
     signal type" idea) and compare canonical forms.  Complete.
   - [exhaustive]: enumerate all input vectors at the Bit semantics.
     Complete, exponential.
   - [random]: sample vectors; a cheap falsifier. *)

module Bit = Hydra_core.Bit
module Netlist = Hydra_netlist.Netlist

(* A COMB instance whose signals are BDDs over a given manager: executing
   a circuit at this instance computes its boolean function symbolically. *)
module type BDD_COMB = sig
  include Hydra_core.Signal_intf.COMB with type t = Bdd.t

  val manager : Bdd.manager
end

let bdd_comb m : (module BDD_COMB) =
  (module struct
    type t = Bdd.t

    let manager = m
    let zero = Bdd.bfalse
    let one = Bdd.btrue
    let constant = Bdd.of_bool
    let inv = Bdd.bdd_not m
    let and2 = Bdd.bdd_and m
    let or2 = Bdd.bdd_or m
    let xor2 = Bdd.bdd_xor m
    let label _ s = s
  end)

(* A circuit abstracted over its semantics — the form every Hydra circuit
   naturally has.  The polymorphic field lets one circuit value be executed
   at the Bit semantics (testing) and the BDD semantics (proof) alike. *)
type circuit = {
  apply :
    'a.
    (module Hydra_core.Signal_intf.COMB with type t = 'a) ->
    'a list ->
    'a list;
}

type counterexample = bool list

type result = Equivalent | Inequivalent of counterexample

(* Symbolic check of two [inputs]-input circuits (any number of outputs):
   build both functions as BDDs and compare canonical forms. *)
let bdd_equiv ~inputs c1 c2 =
  let m = Bdd.manager () in
  let (module C) = bdd_comb m in
  let vars = List.init inputs (Bdd.var m) in
  let fo = c1.apply (module C) vars and go = c2.apply (module C) vars in
  if List.length fo <> List.length go then
    invalid_arg "Equiv.bdd_equiv: output arities differ";
  let diff =
    List.fold_left2
      (fun acc a b -> Bdd.bdd_or m acc (Bdd.bdd_xor m a b))
      Bdd.bfalse fo go
  in
  match Bdd.any_sat diff with
  | None -> Equivalent
  | Some partial ->
    let assign v =
      match List.assoc_opt v partial with Some b -> b | None -> false
    in
    Inequivalent (List.init inputs assign)

(* Symbolic functions of a circuit: output BDDs over fresh variables, plus
   the manager (for further queries such as sat counts). *)
let bdd_outputs ~inputs c =
  let m = Bdd.manager () in
  let (module C) = bdd_comb m in
  let vars = List.init inputs (Bdd.var m) in
  (m, c.apply (module C) vars)

let exhaustive ~inputs c1 c2 =
  let f = c1.apply (module Bit) and g = c2.apply (module Bit) in
  let rec find = function
    | [] -> Equivalent
    | v :: rest -> if f v = g v then find rest else Inequivalent v
  in
  find (Bit.vectors inputs)

(* Shared lane-parallel core: evaluate both circuits on one pass of
   packed words, compare the first [count] lanes, return the first
   differing lane's assignment if any. *)
let packed_pass ~what c1 c2 (words, count) =
  let module P = Hydra_core.Packed in
  let o1 = c1.apply (module P) words and o2 = c2.apply (module P) words in
  if List.length o1 <> List.length o2 then
    invalid_arg (what ^ ": output arities differ");
  let mask = P.mask_of_count count in
  let diff =
    List.fold_left2 (fun acc a b -> acc lor (P.xor2 a b land mask)) 0 o1 o2
  in
  if diff = 0 then None
  else begin
    (* first differing lane is the counterexample *)
    let rec first_lane l = if P.lane diff l then l else first_lane (l + 1) in
    let lane = first_lane 0 in
    Some (List.map (fun w -> P.lane w lane) words)
  end

(* Exhaustive check at the packed semantics: 62 assignments per circuit
   evaluation — typically ~50x faster than {!exhaustive} for the same
   complete guarantee.  The pass stream is lazy, so a counterexample
   stops the sweep early without having materialized the rest. *)
let packed_exhaustive ~inputs c1 c2 =
  let passes = Hydra_core.Packed.enumerate ~inputs in
  let rec scan s =
    match s () with
    | Seq.Nil -> Equivalent
    | Seq.Cons (pass, rest) -> (
        match packed_pass ~what:"Equiv.packed_exhaustive" c1 c2 pass with
        | None -> scan rest
        | Some v -> Inequivalent v)
  in
  scan passes

(* Random sampling at the packed semantics: each circuit evaluation
   tests 62 random assignments at once, so [trials] vectors cost
   ceil(trials/62) passes — the cheap falsifier at 1/62nd the price. *)
let packed_random ?(trials = 1000) ~inputs c1 c2 =
  let module P = Hydra_core.Packed in
  let st = Random.State.make [| 0x5eed; inputs; trials |] in
  let rec go remaining =
    if remaining <= 0 then Equivalent
    else begin
      let count = min P.lanes remaining in
      let words =
        List.init inputs (fun _ ->
            let w = ref 0 in
            for l = 0 to count - 1 do
              if Random.State.bool st then w := !w lor (1 lsl l)
            done;
            !w)
      in
      match packed_pass ~what:"Equiv.packed_random" c1 c2 (words, count) with
      | None -> go (remaining - count)
      | Some v -> Inequivalent v
    end
  in
  go trials

(* Sequential random equivalence of two netlists with the same port
   names, run on the 62-lane engine: every pass drives 62 random stimulus
   streams into both circuits simultaneously and compares every output
   word every cycle — ~60x fewer simulator passes than lane-at-a-time
   sampling.  This is the workhorse check for optimized-vs-original
   netlists (both engines see the same packed inputs, dffs included). *)
type seq_result =
  | Seq_equivalent
  | Seq_mismatch of { output : string; cycle : int; inputs : (string * bool list) list }

(* Certify both netlists before simulating them, so a falsified run
   means "the engines disagree" and never "the generator emitted a
   malformed netlist that the engines mis-indexed"; then check that
   their port names agree.  Returns [nl1]'s input and output names;
   errors name [caller]. *)
let check_pair caller nl1 nl2 =
  List.iter
    (fun (which, nl) ->
      match Hydra_analyze.Certify.validate nl with
      | Ok () -> ()
      | Error reason ->
        invalid_arg
          (Printf.sprintf "Equiv.%s: invalid netlist %s (%s)" caller which reason))
    [ ("nl1", nl1); ("nl2", nl2) ];
  let names ports = List.map fst ports in
  let same what p1 p2 =
    if List.sort compare (names p1) <> List.sort compare (names p2) then
      invalid_arg (Printf.sprintf "Equiv.%s: %s ports differ" caller what)
  in
  same "input" nl1.Netlist.inputs nl2.Netlist.inputs;
  same "output" nl1.Netlist.outputs nl2.Netlist.outputs;
  (names nl1.Netlist.inputs, names nl1.Netlist.outputs)

let wide_random_netlists ?scheduler ?cache ?(passes = 8) ?(cycles = 32)
    ?(seed = 0x5eed) ?(domains = 1) ?deadline nl1 nl2 =
  let module Slab = Hydra_engine.Slab in
  let module Scheduler = Hydra_engine.Scheduler in
  let module Cache = Hydra_engine.Cache in
  let module P = Hydra_core.Packed in
  let in_names, out_names = check_pair "wide_random_netlists" nl1 nl2 in
  (* both sides' replicas are kept member-aligned by hand through the
     fan-out's ~member index; [?cache] serves warm 62-lane engines (the
     default compile flags) *)
  let mk nl =
    match cache with Some c -> Cache.slab c ~k:1 nl | None -> Slab.create ~k:1 nl
  in
  let base1 = mk nl1 in
  let base2 = mk nl2 in
  let results = Array.make passes Seq_equivalent in
  (* lowest pass index with a recorded mismatch; later passes that have
     not started yet are skipped once a lower one is recorded, so the
     reported mismatch is deterministic regardless of scheduling *)
  let best = Atomic.make max_int in
  let rec record_min pass =
    let cur = Atomic.get best in
    if pass < cur && not (Atomic.compare_and_set best cur pass) then
      record_min pass
  in
  let run_pass s1 s2 pass =
    (* an independent RNG per pass: the stimulus of pass [p] does not
       depend on which member runs it or in what order *)
    let st = Random.State.make [| seed; pass; cycles |] in
    Slab.reset s1;
    Slab.reset s2;
    (* record the stimulus so a mismatch can report the failing lane's
       input streams up to the failing cycle *)
    let history = ref [] in
    try
      for c = 0 to cycles - 1 do
        let row = List.map (fun name -> (name, P.random_word st)) in_names in
        history := row :: !history;
        List.iter
          (fun (name, w) ->
            Slab.set_input s1 name w;
            Slab.set_input s2 name w)
          row;
        Slab.settle s1;
        Slab.settle s2;
        List.iter
          (fun name ->
            let w1 = Slab.output s1 name and w2 = Slab.output s2 name in
            if w1 <> w2 then begin
              let diff = w1 lxor w2 in
              let rec first_lane l =
                if P.lane diff l then l else first_lane (l + 1)
              in
              let lane = first_lane 0 in
              let streams =
                List.map
                  (fun iname ->
                    ( iname,
                      List.rev_map
                        (fun row -> P.lane (List.assoc iname row) lane)
                        !history ))
                  in_names
              in
              results.(pass) <-
                Seq_mismatch { output = name; cycle = c; inputs = streams };
              record_min pass;
              raise Exit
            end)
          out_names;
        Slab.tick s1;
        Slab.tick s2
      done
    with Exit -> ()
  in
  let replicas base n =
    Array.init n (fun i -> if i = 0 then base else Slab.replicate base)
  in
  let run sch =
    let n = Scheduler.domains sch in
    let sims1 = replicas base1 n and sims2 = replicas base2 n in
    Scheduler.run_tasks sch ~name:"equiv" ?deadline passes
      (fun ~member pass ->
        if pass < Atomic.get best then
          run_pass sims1.(member) sims2.(member) pass)
  in
  (match scheduler with
  | Some sch -> run sch
  | None ->
    let sch = Scheduler.create ~domains () in
    Fun.protect ~finally:(fun () -> Scheduler.shutdown sch) (fun () -> run sch));
  match Atomic.get best with
  | p when p < max_int -> results.(p)
  | _ -> Seq_equivalent

(* Engine-vs-engine sequential random equivalence: the same check as
   {!wide_random_netlists}, but each side runs on an arbitrary
   {!Hydra_engine.Engine_intf.S} handle, so a K-word {!Hydra_engine.Slab}
   can be cross-checked against the 1-word reference oracle (or any two
   engines against each other).  The stimulus cube is materialized up
   front per pass — [max words1 words2] packed words per input per cycle
   — and an engine with fewer words consumes it in multiple reset+replay
   rounds, so every global lane of the wider engine is compared against a
   genuinely independent simulation on the narrower one. *)
let engine_random_netlists ?(passes = 4) ?(cycles = 32) ?(seed = 0x5eed)
    (e1 : (module Hydra_engine.Engine_intf.S))
    (e2 : (module Hydra_engine.Engine_intf.S)) nl1 nl2 =
  let module P = Hydra_core.Packed in
  let in_names, out_names = check_pair "engine_random_netlists" nl1 nl2 in
  let nout = List.length out_names in
  let out_arr = Array.of_list out_names in
  let module Run (E : Hydra_engine.Engine_intf.S) = struct
    (* Replay the whole stimulus cube on [sim], [words sim] global word
       indices per round, and return the output cube
       [cube.(cycle).(out).(global_word)].  Global words beyond the cube
       (when [wmax mod words <> 0]) are driven with 0 and ignored. *)
    let collect sim ~wmax ~stim =
      let we = E.words sim in
      let rounds = (wmax + we - 1) / we in
      let cube =
        Array.init cycles (fun _ -> Array.make_matrix nout wmax 0)
      in
      for r = 0 to rounds - 1 do
        E.reset sim;
        for c = 0 to cycles - 1 do
          List.iter
            (fun (name, ws) ->
              for lw = 0 to we - 1 do
                let g = (r * we) + lw in
                E.set_input_word sim name lw (if g < wmax then ws.(g) else 0)
              done)
            stim.(c);
          E.settle sim;
          for o = 0 to nout - 1 do
            for lw = 0 to we - 1 do
              let g = (r * we) + lw in
              if g < wmax then
                cube.(c).(o).(g) <- E.output_word sim out_arr.(o) lw
            done
          done;
          E.tick sim
        done
      done;
      cube
  end in
  let (module E1) = e1 and (module E2) = e2 in
  let module R1 = Run (E1) in
  let module R2 = Run (E2) in
  let s1 = E1.create nl1 and s2 = E2.create nl2 in
  let wmax = max (E1.words s1) (E2.words s2) in
  let result = ref Seq_equivalent in
  (try
     for pass = 0 to passes - 1 do
       (* same per-pass RNG derivation as wide_random_netlists: at
          wmax = 1 the stimulus is identical to the wide check's *)
       let st = Random.State.make [| seed; pass; cycles |] in
       let stim =
         Array.init cycles (fun _ ->
             List.map
               (fun name ->
                 (name, Array.init wmax (fun _ -> P.random_word st)))
               in_names)
       in
       let cube1 = R1.collect s1 ~wmax ~stim in
       let cube2 = R2.collect s2 ~wmax ~stim in
       for c = 0 to cycles - 1 do
         for o = 0 to nout - 1 do
           for g = 0 to wmax - 1 do
             let w1 = cube1.(c).(o).(g) and w2 = cube2.(c).(o).(g) in
             if w1 <> w2 then begin
               let diff = w1 lxor w2 in
               let rec first_bit l =
                 if P.lane diff l then l else first_bit (l + 1)
               in
               let bit = first_bit 0 in
               let streams =
                 List.map
                   (fun iname ->
                     ( iname,
                       List.init (c + 1) (fun cyc ->
                           P.lane (List.assoc iname stim.(cyc)).(g) bit) ))
                   in_names
               in
               result :=
                 Seq_mismatch
                   { output = out_arr.(o); cycle = c; inputs = streams };
               raise Exit
             end
           done
         done
       done
     done
   with Exit -> ());
  !result

(* The acceptance check for the slab engine: K-word slab vs the 62-lane
   packed oracle ({!Hydra_engine.Engine_intf.oracle}), which shares no
   code with the compiled kernels, on the same netlist. *)
let slab_vs_wide ?passes ?cycles ?seed ?(k = 8) nl =
  engine_random_netlists ?passes ?cycles ?seed
    (Hydra_engine.Slab.engine k)
    Hydra_engine.Engine_intf.oracle nl nl

let seq_equivalent = function Seq_equivalent -> true | Seq_mismatch _ -> false

(* Translation validation for {!Hydra_engine.Kernel.patch}: run the
   patched program against an independent fresh full compile of its own
   netlist and wrap the verdict as a {!Hydra_analyze.Certify.outcome} —
   the same contract as the compile-time pass certificates, applied to
   an incremental recompile. *)
let certify_patch ?(passes = 4) ?(cycles = 32) ?(seed = 0x5eed)
    (prog : Hydra_engine.Kernel.program) =
  let module K = Hydra_engine.Kernel in
  let module C = Hydra_analyze.Certify in
  let nl = prog.K.netlist in
  let transform = "kernel-patch" in
  match C.validate nl with
  | Error reason ->
    C.Refuted
      { transform; failure = C.Invalid { which = "patched"; reason } }
  | Ok () -> (
    let patched : (module Hydra_engine.Engine_intf.S) =
      (module struct
        include Hydra_engine.Slab

        let name = "patched"

        let create ?optimize:_ ?relayout:_ ?fuse:_ ?certify:_ _ =
          Hydra_engine.Slab.of_program prog
      end)
    in
    match
      engine_random_netlists ~passes ~cycles ~seed patched
        (Hydra_engine.Slab.engine 1) nl nl
    with
    | Seq_equivalent ->
      C.Certified
        {
          transform;
          checks =
            [
              "validate";
              Printf.sprintf "io-equiv-vs-full-compile(passes=%d,cycles=%d)"
                passes cycles;
            ];
        }
    | Seq_mismatch { output; cycle; inputs } ->
      C.Refuted
        {
          transform;
          failure = C.Behaviour_differs { C.output; cycle; inputs };
        })

let random ?(trials = 1000) ~inputs c1 c2 =
  let f = c1.apply (module Bit) and g = c2.apply (module Bit) in
  let st = Random.State.make [| 0x5eed; inputs; trials |] in
  let rec go n =
    if n = 0 then Equivalent
    else
      let v = List.init inputs (fun _ -> Random.State.bool st) in
      if f v = g v then go (n - 1) else Inequivalent v
  in
  go trials

let is_equivalent = function Equivalent -> true | Inequivalent _ -> false
