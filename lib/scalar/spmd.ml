(* SPMD parallel simulator (paper section 4.3).

   The paper mentions, as then-current research, "an analysis-based
   transformation that produces an efficient SPMD style parallel simulator
   from a Hydra specification".  This engine is that transformation's
   target shape: the levelized netlist is statically sliced, every worker
   executes the same program — its slice of level 0, barrier, its slice of
   level 1, barrier, ... — and the only synchronization is a
   sense-reversing spin barrier, orders of magnitude cheaper per level
   than the fork-join pool of {!Parallel_sim} (experiment E10 measures
   both).

   Workers are long-lived domains that busy-wait between cycles; the spin
   loops degrade to a yielding syscall after a bound so that the engine
   stays live on machines with fewer cores than domains.  Use [shutdown]
   to stop the workers. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize

(* Sense-reversing spin barrier. *)
module Barrier = struct
  type t = { n : int; count : int Atomic.t; sense : bool Atomic.t }

  let create n = { n; count = Atomic.make 0; sense = Atomic.make false }

  (* Each participating thread owns a [sense] ref that flips each use. *)
  let wait b my_sense =
    let s = not !my_sense in
    my_sense := s;
    if Atomic.fetch_and_add b.count 1 = b.n - 1 then begin
      Atomic.set b.count 0;
      Atomic.set b.sense s
    end
    else begin
      let spins = ref 0 in
      while Atomic.get b.sense <> s do
        incr spins;
        if !spins < 2048 then Domain.cpu_relax ()
        else Unix.sleepf 1e-6 (* oversubscribed host: yield *)
      done
    end
end

type command = Idle | Settle | Tick | Stop

type t = {
  base : Compiled.t;
  n : int;  (* total workers, caller included *)
  by_level : int array array;
  phase : int Atomic.t;
  command : command Atomic.t;
  barrier : Barrier.t;
  main_sense : bool ref;  (* the caller's barrier sense (worker 0) *)
  mutable domains : unit Domain.t list;
}

(* Worker [w]'s slice of an array of length [len]. *)
let slice t w len =
  let lo = w * len / t.n and hi = (w + 1) * len / t.n in
  (lo, hi)

let do_settle t w my_sense =
  Array.iter
    (fun level ->
      let lo, hi = slice t w (Array.length level) in
      for k = lo to hi - 1 do
        Compiled.eval_component t.base (Array.unsafe_get level k)
      done;
      Barrier.wait t.barrier my_sense)
    t.by_level

let do_tick t w my_sense =
  let ndffs = Array.length (Compiled.dff_indices t.base) in
  let lo, hi = slice t w ndffs in
  for j = lo to hi - 1 do
    Compiled.latch_one t.base j
  done;
  Barrier.wait t.barrier my_sense;
  for j = lo to hi - 1 do
    Compiled.commit_one t.base j
  done;
  Barrier.wait t.barrier my_sense

let worker t w () =
  let my_sense = ref false in
  let my_phase = ref 0 in
  let running = ref true in
  while !running do
    (* wait for the next phase *)
    let spins = ref 0 in
    while Atomic.get t.phase = !my_phase do
      incr spins;
      if !spins < 2048 then Domain.cpu_relax () else Unix.sleepf 1e-6
    done;
    my_phase := Atomic.get t.phase;
    (match Atomic.get t.command with
    | Settle -> do_settle t w my_sense
    | Tick -> do_tick t w my_sense
    | Stop -> running := false
    | Idle -> ());
    if !running then Barrier.wait t.barrier my_sense
  done

let create ?(domains = 2) netlist =
  let base = Compiled.create netlist in
  let n = max 1 domains in
  let t =
    {
      base;
      n;
      by_level = (Compiled.levels base).Levelize.by_level;
      phase = Atomic.make 0;
      command = Atomic.make Idle;
      barrier = Barrier.create n;
      main_sense = ref false;
      domains = [];
    }
  in
  t.domains <- List.init (n - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

(* The caller acts as worker 0. *)
let run_command t cmd =
  if t.n = 1 then begin
    (* no workers: run inline without barriers *)
    match cmd with
    | Settle -> Compiled.settle t.base
    | Tick -> Compiled.tick t.base
    | Idle | Stop -> ()
  end
  else begin
    Atomic.set t.command cmd;
    Atomic.incr t.phase;
    (match cmd with
    | Settle -> do_settle t 0 t.main_sense
    | Tick -> do_tick t 0 t.main_sense
    | Idle | Stop -> ());
    Barrier.wait t.barrier t.main_sense
  end

let settle t = run_command t Settle

let tick t =
  run_command t Tick;
  if t.n > 1 then Compiled.bump_cycle t.base

let step t =
  settle t;
  tick t

let shutdown t =
  if t.n > 1 then begin
    Atomic.set t.command Stop;
    Atomic.incr t.phase;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let reset t = Compiled.reset t.base
let set_input t = Compiled.set_input t.base
let output t = Compiled.output t.base
let outputs t = Compiled.outputs t.base

let run t ~inputs ~cycles =
  Run.loop ~reset ~set_input ~settle ~outputs ~tick t ~inputs ~cycles
