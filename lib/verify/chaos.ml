(* Chaos harness: seeded, replayable fault injection for the execution
   layer.

   A plan is a pure decision function: whether a given (label, task,
   attempt) site gets a delay or an exception — and how long — is
   hashed from the plan seed with the same splitmix discipline as
   {!Hydra_engine.Resilience.backoff} jitter and the fault campaigns'
   intermittent coins.  Replaying a storm is therefore exact: the same
   seed injects the same faults at the same sites, and a retried task
   sees a *different* decision on its next attempt (attempt is part of
   the site), which is what lets retry policies actually recover.

   [wrap] dresses a {!Hydra_engine.Scheduler.run_tasks} body; [hook]
   dresses the compiled-circuit cache's lookup/insert sites via
   {!Hydra_engine.Cache.set_fault_hook}.  Counters record every
   injection, so soak tests can assert both "enough chaos happened" and
   "nothing was lost". *)

module Resilience = Hydra_engine.Resilience

exception Injected of { label : string; task : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected { label; task; attempt } ->
      Some
        (Printf.sprintf "Chaos.Injected(label=%S, task=%d, attempt=%d)" label
           task attempt)
    | _ -> None)

type plan = {
  seed : int;
  delay_rate : float;
  exn_rate : float;
  max_delay : float;
  delays : int Atomic.t;
  exns : int Atomic.t;
  (* per-(label, task) attempt counters: the site key includes the
     attempt number so a retry re-rolls its fate *)
  attempts : (string * int, int) Hashtbl.t;
  a_lock : Mutex.t;
}

type counts = { delays : int; exns : int }

let plan ?(delay_rate = 0.05) ?(exn_rate = 0.05) ?(max_delay = 0.005) ~seed
    () =
  let rate name r =
    if r < 0.0 || r > 1.0 then
      invalid_arg (Printf.sprintf "Chaos.plan: %s must be in [0, 1]" name)
  in
  rate "delay_rate" delay_rate;
  rate "exn_rate" exn_rate;
  if delay_rate +. exn_rate > 1.0 then
    invalid_arg "Chaos.plan: rates must sum to <= 1";
  if max_delay < 0.0 then invalid_arg "Chaos.plan: max_delay must be >= 0";
  {
    seed;
    delay_rate;
    exn_rate;
    max_delay;
    delays = Atomic.make 0;
    exns = Atomic.make 0;
    attempts = Hashtbl.create 64;
    a_lock = Mutex.create ();
  }

let injected (p : plan) =
  { delays = Atomic.get p.delays; exns = Atomic.get p.exns }

(* Mix a string into hashable ints without depending on Hashtbl.hash
   stability across versions: fold characters into two accumulators. *)
let label_ints label =
  let a = ref 0 and b = ref 0 in
  String.iteri
    (fun i c -> (
       a := (!a * 31) + Char.code c;
       b := !b lxor (Char.code c lsl (i land 15))))
    label;
  (!a, !b)

type verdict = Pass | Delay of float | Raise

(* The pure per-site decision: one uniform draw partitioned by the
   rates, a second draw for the delay magnitude. *)
let decide p ~label ~task ~attempt =
  let la, lb = label_ints label in
  let u = Resilience.unit_hash [ p.seed; la; lb; task; attempt; 0x51 ] in
  if u < p.exn_rate then Raise
  else if u < p.exn_rate +. p.delay_rate then
    Delay
      (p.max_delay
      *. Resilience.unit_hash [ p.seed; la; lb; task; attempt; 0xde1a ])
  else Pass

let next_attempt p ~label ~task =
  Mutex.lock p.a_lock;
  let k = (label, task) in
  let a = 1 + (try Hashtbl.find p.attempts k with Not_found -> 0) in
  Hashtbl.replace p.attempts k a;
  Mutex.unlock p.a_lock;
  a

let inject p ~label ~task =
  let attempt = next_attempt p ~label ~task in
  match decide p ~label ~task ~attempt with
  | Pass -> ()
  | Delay d ->
    Atomic.incr p.delays;
    Unix.sleepf d
  | Raise ->
    Atomic.incr p.exns;
    raise (Injected { label; task; attempt })

let wrap p ~label body ~member task =
  inject p ~label ~task;
  body ~member task

let hook p ~label site =
  (* cache sites have no task index; fold the site name into the label
     so lookup and insert roll independent fates *)
  inject p ~label:(label ^ ":" ^ site) ~task:0
