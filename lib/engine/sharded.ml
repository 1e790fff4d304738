(* Domain-sharded word-parallel simulation: multiply a lane-packed engine
   by core count.

   The paper's synchronous model (section 4.3) makes every gate within a
   levelized rank independent; {!Slab} exploits that within K
   consecutive machine words (62*K lanes per pass).  This module adds
   the second parallelism axis — domains — the only way that composes
   instead of fighting: *batch-level* sharding.  Per-rank fork-join
   ({!Parallel_sim}) pays two barriers per rank per cycle; sharding pays
   one synchronization per *job*.

   - One base engine is compiled once; every domain owns a private
     [Slab.replicate] — separate (cache-line padded) value/dff state over
     the shared immutable compiled index arrays.  Replicas are created
     once at {!of_base} and reused for the sharded engine's whole
     lifetime, so steady-state jobs allocate nothing per batch (a
     transient replica per chunk was measurably slower than a single
     instance).

   - Work arrives as an array of independent lane-batches.  Pool members
     run in {!Hydra_parallel.Pool.run_team} mode — one long-lived body
     per member — and drain batch indices from a single atomic counter.
     There are no per-cycle and no per-level barriers: a member simulates
     its whole batch undisturbed, claims the next, and the only join is
     when the queue is empty.

   Peak independent simulations per settle pass: [62 x k x domains]. *)

module Pool = Hydra_parallel.Pool
module Netlist = Hydra_netlist.Netlist
module Packed = Hydra_core.Packed

type t = {
  pool : Pool.t;
  owns_pool : bool;
  replicas : Slab.t array;  (* one per pool member; [replicas.(0)] is the base *)
}

let of_base ?domains ?pool base =
  let pool, owns_pool =
    match pool with
    | Some p -> (p, false)
    | None -> (Pool.create ?domains (), true)
  in
  let replicas =
    Array.init (Pool.size pool) (fun i ->
        if i = 0 then base else Slab.replicate base)
  in
  { pool; owns_pool; replicas }

let create ?optimize ?relayout ?fuse ?certify ?domains ?pool netlist =
  of_base ?domains ?pool
    (Slab.create ~k:1 ?optimize ?relayout ?fuse ?certify netlist)

let pool t = t.pool
let domains t = Pool.size t.pool
let base t = t.replicas.(0)
let replica t m = t.replicas.(m)
let netlist t = Slab.netlist t.replicas.(0)
let k t = Slab.k t.replicas.(0)
let lanes t = Slab.lanes t.replicas.(0)
let shutdown t = if t.owns_pool then Pool.shutdown t.pool

(* The scheduling core: run [f ~member job] for every [0 <= job < n].
   Members drain jobs from one atomic counter — synchronization at
   batch granularity only — and each call sees the member index, so
   callers can keep per-member state of their own (e.g. a second
   engine's replicas) aligned with ours. *)
let run_tasks t n f =
  if n <= 0 then ()
  else if domains t = 1 || n = 1 then
    for job = 0 to n - 1 do
      f ~member:0 job
    done
  else begin
    let next = Atomic.make 0 in
    Pool.run_team t.pool (fun member ->
        let rec drain () =
          let job = Atomic.fetch_and_add next 1 in
          if job < n then begin
            f ~member job;
            drain ()
          end
        in
        drain ())
  end

(* [dispatch t n f] runs [f sim job] for every job on some private
   replica — the common case where only the engine matters. *)
let dispatch t n f =
  run_tasks t n (fun ~member job -> f t.replicas.(member) job)

(* Independent sequential lane-batches on persistent replicas: element
   [b] of the result is [run_packed] of [batches.(b)]. *)
let run_batches t ~batches ~cycles =
  let n = Array.length batches in
  let results = Array.make n [] in
  dispatch t n (fun sim b ->
      results.(b) <- Slab.run_packed sim ~inputs:batches.(b) ~cycles);
  results

(* Batched combinational testbench across lanes *and* domains: vector
   [v] rides word [(v mod lanes) / 62], bit [v mod 62] of pass
   [v / lanes]; passes are the sharded jobs. *)
let run_vectors t vectors =
  let nvec = Array.length vectors in
  let nl = netlist t in
  let in_ports = Array.of_list nl.Netlist.inputs in
  let out_ports = Array.of_list nl.Netlist.outputs in
  let nin = Array.length in_ports and nout = Array.length out_ports in
  Array.iter
    (fun v ->
      if Array.length v <> nin then
        invalid_arg "Sharded.run_vectors: vector arity mismatch")
    vectors;
  let words = Slab.k t.replicas.(0) in
  let per_pass = lanes t in
  let results = Array.make nvec [||] in
  let ch = Scheduler.chunking ~lanes:per_pass nvec in
  dispatch t ch.Scheduler.count (fun sim p ->
      let bse, hi = ch.Scheduler.bounds p in
      let count = hi - bse in
      Slab.reset sim;
      for j = 0 to nin - 1 do
        let name = fst in_ports.(j) in
        for w = 0 to words - 1 do
          let word = ref 0 in
          let lo = w * Packed.lanes in
          let hi = min (lo + Packed.lanes) count in
          for l = lo to hi - 1 do
            if vectors.(bse + l).(j) then word := !word lor (1 lsl (l - lo))
          done;
          Slab.set_input_word sim name w !word
        done
      done;
      Slab.settle sim;
      let out_words =
        Array.map
          (fun (name, _) -> Array.init words (Slab.output_word sim name))
          out_ports
      in
      for l = 0 to count - 1 do
        let w = l / Packed.lanes and bit = l mod Packed.lanes in
        results.(bse + l) <-
          Array.init nout (fun j -> Packed.lane out_words.(j).(w) bit)
      done);
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
