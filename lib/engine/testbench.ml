(* A test-bench DSL: declarative stimulus and expectations over named
   ports, batched over the lanes of any word-parallel engine handle
   ({!run_batched}); {!run} is its one-case form on the reference
   oracle.

   Paper section 6.4: "Hydra provides a set of tools for defining
   simulation drivers — functions that take inputs in a convenient form
   and generate the corresponding circuit input signals, and similarly
   format the circuit outputs".  This module is that toolkit for the
   netlist engines: drive words (not just bits) with per-cycle values or
   generator functions, check expected values where specified, and get a
   readable report (with ASCII waveforms on failure). *)

module Netlist = Hydra_netlist.Netlist

(* How to drive one logical signal (a named bit or a named word whose bit
   ports are [name0 .. name{w-1}], MSB first — the convention used
   throughout the library). *)
type stimulus =
  | Bit_values of string * bool list  (* port, value per cycle (then hold last) *)
  | Bit_fun of string * (int -> bool)
  | Word_values of string * int * int list  (* prefix, width, value per cycle *)
  | Word_fun of string * int * (int -> int)

type expectation =
  | Expect_bit of { cycle : int; port : string; value : bool }
  | Expect_word of { cycle : int; prefix : string; width : int; value : int }

type failure = {
  at_cycle : int;
  what : string;
  expected : string;
  got : string;
}

type report = {
  cycles_run : int;
  failures : failure list;
  observed : (string * bool list) list;  (* every output's full trace *)
}

let passed r = r.failures = []

let bit_port_names = function
  | Bit_values (p, _) | Bit_fun (p, _) -> [ p ]
  | Word_values (p, w, _) | Word_fun (p, w, _) ->
    List.init w (fun i -> Printf.sprintf "%s%d" p i)

let value_at stim t =
  match stim with
  | Bit_values (_, vs) -> (
      let n = List.length vs in
      match vs with
      | [] -> [ false ]
      | _ -> [ List.nth vs (min t (n - 1)) ])
  | Bit_fun (_, f) -> [ f t ]
  | Word_values (_, w, vs) ->
    let n = List.length vs in
    let v = if n = 0 then 0 else List.nth vs (min t (n - 1)) in
    Hydra_core.Bitvec.of_int ~width:w v
  | Word_fun (_, w, f) -> Hydra_core.Bitvec.of_int ~width:w (f t)

(* Batched test benches on a lane-packed engine: up to [62 x words]
   independent cases (each its own stimuli + expectations over the same
   netlist) ride in the lanes of one word-parallel simulation, so N cases
   cost ceil(N/lanes) sequential runs.  Cases may drive different ports;
   a port no case drives in some lane simply stays 0 there, exactly as in
   a scalar run.  The chunk runner is a functor over {!Engine_intf.S} so
   the same checking code serves the default 62-lane engine
   ([Slab.engine 1], 62 cases per chunk) and any [?engine] handle such
   as [Slab.engine 8] (62*K cases per chunk).  The chunks are the
   tasks of one scheduler job — on [?scheduler]'s team, one engine
   replica per member, or on a private one-member scheduler — so the
   job carries the [?deadline]. *)
let run_batched ?scheduler ?engine ?deadline ~cycles ~cases netlist =
  let ncases = Array.length cases in
  let out_names = List.map fst netlist.Netlist.outputs in
  let reports = Array.make ncases { cycles_run = 0; failures = []; observed = [] } in
  let module Run (E : Engine_intf.S) = struct
    (* lane [l] of chunk [c] carries case [c * lanes + l]; reads go
       through word [l / 62], bit [l mod 62] *)
    let chunk sim c =
      let words = E.words sim in
      let lanes = Hydra_core.Packed.lanes * words in
      let base = c * lanes in
      let count = min lanes (ncases - base) in
      E.reset sim;
      let traces = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace traces n []) out_names;
      let failures = Array.make count [] in
      let lane_of ws l =
        Hydra_core.Packed.lane
          ws.(l / Hydra_core.Packed.lanes)
          (l mod Hydra_core.Packed.lanes)
      in
      for t = 0 to cycles - 1 do
        for l = 0 to count - 1 do
          let stimuli, _ = cases.(base + l) in
          List.iter
            (fun stim ->
              List.iter2
                (fun port v -> E.set_input_lane sim port l v)
                (bit_port_names stim) (value_at stim t))
            stimuli
        done;
        E.settle sim;
        let outs =
          List.map (fun n -> (n, Array.init words (E.output_word sim n))) out_names
        in
        List.iter
          (fun (n, ws) -> Hashtbl.replace traces n (ws :: Hashtbl.find traces n))
          outs;
        for l = 0 to count - 1 do
          let _, expectations = cases.(base + l) in
          let fail f = failures.(l) <- f :: failures.(l) in
          List.iter
            (fun exp ->
              match exp with
              | Expect_bit { cycle; port; value } when cycle = t -> (
                  match List.assoc_opt port outs with
                  | Some ws ->
                    let got = lane_of ws l in
                    if got <> value then
                      fail
                        {
                          at_cycle = t;
                          what = port;
                          expected = string_of_bool value;
                          got = string_of_bool got;
                        }
                  | None ->
                    fail
                      { at_cycle = t; what = port; expected = "port"; got = "missing" })
              | Expect_word { cycle; prefix; width; value } when cycle = t -> (
                  let bits =
                    List.init width (fun i ->
                        List.assoc_opt (Printf.sprintf "%s%d" prefix i) outs)
                  in
                  if List.exists Option.is_none bits then
                    fail
                      {
                        at_cycle = t;
                        what = prefix;
                        expected = "word ports";
                        got = "missing";
                      }
                  else
                    let got =
                      Hydra_core.Bitvec.to_int
                        (List.map (fun ws -> lane_of (Option.get ws) l) bits)
                    in
                    if got <> value then
                      fail
                        {
                          at_cycle = t;
                          what = prefix;
                          expected = string_of_int value;
                          got = string_of_int got;
                        })
              | Expect_bit _ | Expect_word _ -> ())
            expectations
        done;
        E.tick sim
      done;
      for l = 0 to count - 1 do
        reports.(base + l) <-
          {
            cycles_run = cycles;
            failures = List.rev failures.(l);
            observed =
              List.map
                (fun n ->
                  (n, List.rev_map (fun ws -> lane_of ws l) (Hashtbl.find traces n)))
                out_names;
          }
      done
  end in
  let (module E) = Option.value engine ~default:(Slab.engine 1) in
  let module C = Run (E) in
  let sim = E.create netlist in
  let ch = Scheduler.chunking ~lanes:(Hydra_core.Packed.lanes * E.words sim) ncases in
  let run sch =
    let sims =
      Array.init (Scheduler.domains sch) (fun i ->
          if i = 0 then sim else E.replicate sim)
    in
    Scheduler.run_tasks sch ~name:"testbench" ?deadline ch.Scheduler.count
      (fun ~member c -> C.chunk sims.(member) c)
  in
  (match scheduler with
  | Some sch -> run sch
  | None ->
    let sch = Scheduler.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Scheduler.shutdown sch) (fun () -> run sch));
  reports

(* One case on the packed reference oracle. *)
let run ~cycles ~stimuli ~expectations netlist =
  (run_batched ~engine:Engine_intf.oracle ~cycles ~cases:[| (stimuli, expectations) |] netlist).(0)

let report_string r =
  if passed r then Printf.sprintf "PASS (%d cycles)" r.cycles_run
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "FAIL: %d mismatch(es) in %d cycles\n"
         (List.length r.failures) r.cycles_run);
    List.iter
      (fun f ->
        Buffer.add_string buf
          (Printf.sprintf "  cycle %d, %s: expected %s, got %s\n" f.at_cycle
             f.what f.expected f.got))
      r.failures;
    Buffer.add_string buf "observed waveforms:\n";
    Buffer.add_string buf
      (Wave.render (List.map (fun (n, vs) -> Wave.bit n vs) r.observed));
    Buffer.contents buf
  end
