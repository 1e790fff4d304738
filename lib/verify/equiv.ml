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

(* The error for a netlist that fails {!Hydra_analyze.Certify.validate}:
   both netlists are validated before any engine touches them, so a
   falsified run means "the engines disagree" and never "the generator
   emitted a malformed netlist that the engines mis-indexed". *)
let invalid_netlist caller which reason =
  Invalid_argument
    (Printf.sprintf "Equiv.%s: invalid netlist %s (%s)" caller which reason)

(* Check that the port names of [nl1] and [nl2] agree; errors name
   [caller]. *)
let check_ports caller nl1 nl2 =
  let names ports = List.map fst ports in
  let same what p1 p2 =
    if List.sort compare (names p1) <> List.sort compare (names p2) then
      invalid_arg (Printf.sprintf "Equiv.%s: %s ports differ" caller what)
  in
  same "input" nl1.Netlist.inputs nl2.Netlist.inputs;
  same "output" nl1.Netlist.outputs nl2.Netlist.outputs

(* The one random sequential-equivalence loop, over two word-parallel
   engine handles.  It runs two {!Hydra_engine.Scheduler} jobs on one
   team: on [?scheduler]'s, otherwise on a private scheduler of
   [?domains] (default 1) members.

   The first job prepares the two sides as two tasks.  A side validates
   its netlist (the second only when it is not physically the first, and
   neither when the caller has [~validated] them), creates its base
   engine (digest and cache lookup, or compile) and replicates it once
   per member.  Each task leaves its result or exception in its own
   slot, and the slots are read in a fixed order — [nl1]'s validation,
   [nl2]'s, the port check, [nl1]'s engine, [nl2]'s — so the error
   raised does not depend on the team size.

   The second job runs the passes, each member on its own replica pair.
   Every pass draws a stimulus cube — [max words1 words2] packed words
   per input per cycle for [cycles] cycles — from its own RNG seeded by
   ([seed], pass, [cycles]), so the stimulus of pass [p] does not depend
   on which member runs it or in what order.  An engine with fewer words
   consumes the cube in several reset+replay rounds, so every global
   lane of the wider engine is compared against an independent
   simulation on the narrower one.  A pass that has not started is
   skipped once a lower one has failed, and the reported mismatch is the
   first in (cycle, output, word, lane) order of the lowest failing
   pass, so it is the same at any team size.  [?deadline] is one budget
   over both jobs: the passes get what the sides left. *)
let random_passes ~caller ?scheduler ?(domains = 1) ?deadline
    ?(validated = false) ~passes ~cycles ~seed
    (e1 : (module Hydra_engine.Engine_intf.S))
    (e2 : (module Hydra_engine.Engine_intf.S)) nl1 nl2 =
  let module Scheduler = Hydra_engine.Scheduler in
  let module P = Hydra_core.Packed in
  (* the lowest failing pass so far and its mismatch *)
  let best = Atomic.make (max_int, Seq_equivalent) in
  let rec record pass r =
    let ((p, _) as cur) = Atomic.get best in
    if pass < p && not (Atomic.compare_and_set best cur (pass, r)) then
      record pass r
  in
  let run sch =
    let start = Hydra_engine.Resilience.now () in
    (* one side: its words, and a replay of a stimulus cube on member
       [member]'s replica into the output cube
       [cube.(cycle).(out).(global_word)]; global words past the cube
       are driven with 0 and ignored *)
    let side (module E : Hydra_engine.Engine_intf.S) nl ~nout ~out_arr =
      let base = E.create nl in
      let sims =
        Array.init (Scheduler.domains sch) (fun m ->
            if m = 0 then base else E.replicate base)
      in
      let we = E.words base in
      let collect ~member ~wmax stim =
        let sim = sims.(member) in
        let cube = Array.init cycles (fun _ -> Array.make_matrix nout wmax 0) in
        for r = 0 to ((wmax + we - 1) / we) - 1 do
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
      in
      (we, collect)
    in
    (* [nl1]'s output names index both cubes, whatever order [nl2]
       lists its ports in *)
    let out_arr = Array.of_list (List.map fst nl1.Netlist.outputs) in
    let nout = Array.length out_arr in
    let sides = [| (e1, nl1, "nl1"); (e2, nl2, "nl2") |] in
    (* slot [i]: side [i]'s result, or [Error (failed_validation, exn)] *)
    let slots = Array.make 2 (Error (false, Exit)) in
    Scheduler.run_tasks sch ~name:"equiv" ?deadline 2 (fun ~member:_ i ->
        let e, nl, which = sides.(i) in
        slots.(i) <-
          (match
             if validated || (i = 1 && nl2 == nl1) then Ok ()
             else Hydra_analyze.Certify.validate nl
           with
          | Error reason -> Error (true, invalid_netlist caller which reason)
          | Ok () -> (
            match side e nl ~nout ~out_arr with
            | r -> Ok r
            | exception ex -> Error (false, ex))));
    Array.iter (function Error (true, ex) -> raise ex | _ -> ()) slots;
    check_ports caller nl1 nl2;
    let in_names = List.map fst nl1.Netlist.inputs in
    let prepared i = match slots.(i) with Ok r -> r | Error (_, ex) -> raise ex in
    let w1, collect1 = prepared 0 in
    let w2, collect2 = prepared 1 in
    let wmax = max w1 w2 in
    let run_pass ~member pass =
      let st = Random.State.make [| seed; pass; cycles |] in
      let stim =
        Array.init cycles (fun _ ->
            List.map
              (fun name -> (name, Array.init wmax (fun _ -> P.random_word st)))
              in_names)
      in
      let cube1 = collect1 ~member ~wmax stim in
      let cube2 = collect2 ~member ~wmax stim in
      try
        for c = 0 to cycles - 1 do
          for o = 0 to nout - 1 do
            for g = 0 to wmax - 1 do
              let diff = cube1.(c).(o).(g) lxor cube2.(c).(o).(g) in
              if diff <> 0 then begin
                let rec first_lane l =
                  if P.lane diff l then l else first_lane (l + 1)
                in
                let lane = first_lane 0 in
                let streams =
                  List.map
                    (fun iname ->
                      ( iname,
                        List.init (c + 1) (fun cyc ->
                            P.lane (List.assoc iname stim.(cyc)).(g) lane) ))
                    in_names
                in
                record pass
                  (Seq_mismatch
                     { output = out_arr.(o); cycle = c; inputs = streams });
                raise Exit
              end
            done
          done
        done
      with Exit -> ()
    in
    let deadline =
      Option.map
        (fun d -> d -. (Hydra_engine.Resilience.now () -. start))
        deadline
    in
    Scheduler.run_tasks sch ~name:"equiv" ?deadline passes (fun ~member pass ->
        if pass < fst (Atomic.get best) then run_pass ~member pass)
  in
  (match scheduler with
  | Some sch -> run sch
  | None ->
    let sch = Scheduler.create ~domains () in
    Fun.protect ~finally:(fun () -> Scheduler.shutdown sch) (fun () -> run sch));
  snd (Atomic.get best)

let wide_random_netlists ?scheduler ?cache ?(passes = 8) ?(cycles = 32)
    ?(seed = 0x5eed) ?domains ?deadline nl1 nl2 =
  (* 62-lane engines on both sides; [?cache] serves them warm (the
     default compile flags) *)
  let slab1 : (module Hydra_engine.Engine_intf.S) =
    match cache with
    | None -> Hydra_engine.Slab.engine 1
    | Some c ->
      (module struct
        include Hydra_engine.Slab

        let name = "slab(k=1)"

        let create nl = Hydra_engine.Cache.slab c ~k:1 nl
      end)
  in
  random_passes ~caller:"wide_random_netlists" ?scheduler ?domains ?deadline
    ~passes ~cycles ~seed slab1 slab1 nl1 nl2

let engine_random_netlists ?(passes = 4) ?(cycles = 32) ?(seed = 0x5eed) e1 e2
    nl1 nl2 =
  random_passes ~caller:"engine_random_netlists" ~passes ~cycles ~seed e1 e2
    nl1 nl2

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

        let create _ = Hydra_engine.Slab.of_program prog
      end)
    in
    (* [nl] is validated above: the loop need not validate it again *)
    match
      random_passes ~caller:"engine_random_netlists" ~validated:true ~passes
        ~cycles ~seed patched (Hydra_engine.Slab.engine 1) nl nl
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
