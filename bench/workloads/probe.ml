(* Host-speed probe.

   The shared virtual machines this benchmark was built on change speed
   by up to 1.8x over minutes, and every workload slows together (see
   "Host notes" in the README).  A fixed piece of work timed next to the
   requests measures that speed: a random 60,000-gate netlist evaluated
   once by a plain array interpreter written here — the same kind of
   memory-bound integer work the engines do, but code no library change
   can touch.  Every domain of the run evaluates it at the same time,
   three times each, and a sample is the slowest domain's mean time,
   because a request on several domains waits for the slowest.

   A run's time metrics are scaled by [reference_s] over the median of
   its samples: they read as they would on a host where one evaluation
   takes [reference_s]. *)

let gates = 60_000
let inputs = 256

(* About the probe's time on the 2-vCPU Xeon virtual machine the bounds
   in BENCHMARK.json were set on, in its fast spells. *)
let reference_s = 0.6e-3

type netlist = { op : int array; a : int array; b : int array }

(* Half of the fanins lie among the 64 signals just before the gate,
   half anywhere before it. *)
let netlist =
  lazy
    (let st = Random.State.make [| 0x9b |] in
     let fanin i =
       let limit = inputs + i in
       if Random.State.bool st then limit - 1 - Random.State.int st 64 else Random.State.int st limit
     in
     let op = Array.make gates 0 and a = Array.make gates 0 and b = Array.make gates 0 in
     for i = 0 to gates - 1 do
       op.(i) <- Random.State.int st 3;
       a.(i) <- fanin i;
       b.(i) <- fanin i
     done;
     { op; a; b })

let eval nl values =
  for i = 0 to gates - 1 do
    let x = values.(nl.a.(i)) and y = values.(nl.b.(i)) in
    values.(inputs + i) <- (match nl.op.(i) with 0 -> x land y | 1 -> x lor y | _ -> x lxor y)
  done

(* The mean of three evaluations.  Their best would hide the bursts of
   interference that the requests feel, and tracked the workloads less
   closely (cpu-programs: 0.09 against 0.04 IQR/median over ten seeds). *)
let mean_of_3 nl values =
  snd
    (Stats.time (fun () ->
         for _ = 1 to 3 do
           eval nl values
         done))
  /. 3.

(* One value array per domain, so no two domains write the same memory. *)
type t = { nl : netlist; values : int array array }

let create ~domains =
  { nl = Lazy.force netlist; values = Array.init domains (fun _ -> Array.init (inputs + gates) Fun.id) }

(* One sample, in seconds.  The helper domains live only for the
   sample: a helper parked between samples joins every stop-the-world
   pause of the requests, and slowed design-loop by 8%. *)
let sample t =
  let helpers =
    List.init
      (Array.length t.values - 1)
      (fun d -> Domain.spawn (fun () -> mean_of_3 t.nl t.values.(d + 1)))
  in
  let own = mean_of_3 t.nl t.values.(0) in
  List.fold_left (fun worst d -> Float.max worst (Domain.join d)) own helpers
