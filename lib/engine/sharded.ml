(* Domain-sharded word-parallel simulation: a replica set over a
   {!Scheduler} team.

   The paper's synchronous model (section 4.3) makes every gate within a
   levelized rank independent; {!Slab} exploits that within K
   consecutive machine words (62*K lanes per pass).  This module adds
   the second parallelism axis — domains — at *batch* granularity:
   per-rank fork-join ({!Parallel_sim}) pays two barriers per rank per
   cycle; sharding pays one synchronization per *job*.

   One base engine is compiled once; every scheduler member owns a
   private [Slab.replicate] — separate (cache-line padded) value/dff
   state over the shared immutable compiled index arrays.  Replicas are
   created once at {!of_base} and reused for the sharded engine's whole
   lifetime, so steady-state jobs allocate nothing per batch.  A fan-out
   is one {!Scheduler.run_tasks} job whose task body runs on the
   claiming member's replica.

   Peak independent simulations per settle pass: [62 x k x domains]. *)

module Netlist = Hydra_netlist.Netlist

type t = {
  scheduler : Scheduler.t;
  owns : bool;
  replicas : Slab.t array;  (* one per member; [replicas.(0)] is the base *)
}

let of_base ?domains ?scheduler base =
  let scheduler, owns =
    match scheduler with
    | Some s -> (s, false)
    | None -> (Scheduler.create ?domains (), true)
  in
  let replicas =
    Array.init (Scheduler.domains scheduler) (fun i ->
        if i = 0 then base else Slab.replicate base)
  in
  { scheduler; owns; replicas }

let create ?optimize ?relayout ?fuse ?certify ?domains ?scheduler netlist =
  of_base ?domains ?scheduler
    (Slab.create ~k:1 ?optimize ?relayout ?fuse ?certify netlist)

let domains t = Array.length t.replicas
let replica t m = t.replicas.(m)
let netlist t = Slab.netlist t.replicas.(0)
let k t = Slab.k t.replicas.(0)
let lanes t = Slab.lanes t.replicas.(0)
let shutdown t = if t.owns then Scheduler.shutdown t.scheduler

let dispatch t n f =
  Scheduler.run_tasks t.scheduler ~name:"sharded" n (fun ~member job ->
      f t.replicas.(member) job)

(* Independent sequential lane-batches on persistent replicas: element
   [b] of the result is [run_packed] of [batches.(b)]. *)
let run_batches t ~batches ~cycles =
  let n = Array.length batches in
  let results = Array.make n [] in
  dispatch t n (fun sim b ->
      results.(b) <- Slab.run_packed sim ~inputs:batches.(b) ~cycles);
  results

(* Batched combinational testbench across lanes *and* domains: each
   {!lanes}-vector pass is one job of [Slab.run_vectors]. *)
let run_vectors t vectors =
  let results = Array.make (Array.length vectors) [||] in
  let ch = Scheduler.chunking ~lanes:(lanes t) (Array.length vectors) in
  dispatch t ch.Scheduler.count (fun sim p ->
      let lo, hi = ch.Scheduler.bounds p in
      let rows = Slab.run_vectors sim (Array.sub vectors lo (hi - lo)) in
      Array.blit rows 0 results lo (hi - lo));
  results

(* Raw stepping throughput — the benchmark workload: every job resets
   its replica, drives one packed word per input, then settles/ticks
   [cycles] times.  No outputs are materialized (a checksum defeats
   dead-code elimination), so this measures exactly what a single
   engine's step-loop measures, times [62 x words x domains]
   independent simulations. *)
let step_batches t ~batches ~cycles =
  let nl = netlist t in
  (* port indices resolved once — no per-batch name lookups in the
     measured loop *)
  let in_idx = Array.of_list (List.map snd nl.Netlist.inputs) in
  let out_idx = Array.of_list (List.map snd nl.Netlist.outputs) in
  let sum = Atomic.make 0 in
  dispatch t batches (fun sim b ->
      Slab.reset sim;
      Array.iteri
        (fun j i -> Slab.poke sim i (b * 0x9e3779b9 + (j * 0x85ebca77)))
        in_idx;
      for _ = 1 to cycles do
        Slab.step sim
      done;
      let local =
        Array.fold_left (fun acc i -> acc lxor Slab.peek sim i) 0 out_idx
      in
      ignore (Atomic.fetch_and_add sum (local land 0xff)));
  Atomic.get sum
