(* Tests for the resilience layer: deadlines/Timed_out, retry with
   deterministic backoff, the heartbeat watchdog, overload
   shedding/degradation, the chaos harness soak, and the satellite
   regressions (progress-callback reentrancy, cache eviction counter
   exactness, stuck-cycle backstop). *)

open Util
module N = Hydra_netlist.Netlist
module G = Hydra_core.Graph
module Scheduler = Hydra_engine.Scheduler
module Resilience = Hydra_engine.Resilience
module Cache = Hydra_engine.Cache
module Campaign = Hydra_verify.Campaign
module Chaos = Hydra_verify.Chaos

let ripple_netlist n =
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.extract ~inputs:(xs @ ys)
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let trail_has sch j sub =
  List.exists
    (fun line ->
      let ln = String.length line and lsub = String.length sub in
      let rec scan i =
        i + lsub <= ln && (String.sub line i lsub = sub || scan (i + 1))
      in
      scan 0)
    (Scheduler.trail sch j)

(* Deadlines ----------------------------------------------------------- *)

let deadline_tests =
  [
    tc "deadline expiry: Timed_out, dependents cancelled, reusable" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let slow =
          Scheduler.submit ~name:"slow" ~deadline:0.05 sch ~tasks:50
            (fun ~member:_ _ -> Unix.sleepf 0.01)
        in
        let dep =
          Scheduler.submit ~name:"dep" ~deps:[ slow ] sch ~tasks:1
            (fun ~member:_ _ -> Alcotest.fail "dependent of timed-out job ran")
        in
        Scheduler.run sch;
        check_bool "timed out" true
          (Scheduler.status sch slow = Scheduler.Timed_out);
        check_bool "dependent cancelled" true
          (Scheduler.status sch dep = Scheduler.Cancelled);
        check_bool "trail records expiry" true
          (trail_has sch slow "deadline exceeded");
        (* storm over: the scheduler keeps working *)
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch 5 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "reusable after timeout" 5 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "generous deadline: Done, empty trail" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let j =
          Scheduler.submit ~name:"ok" ~deadline:30.0 sch ~tasks:4
            (fun ~member:_ _ -> ())
        in
        Scheduler.run sch;
        check_bool "done" true (Scheduler.status sch j = Scheduler.Done);
        check_int "no incidents journaled" 0
          (List.length (Scheduler.trail sch j));
        Scheduler.shutdown sch);
    tc "run_tasks surfaces Deadline_exceeded" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        (match
           Scheduler.run_tasks sch ~name:"budgeted" ~deadline:0.03 20
             (fun ~member:_ _ -> Unix.sleepf 0.01)
         with
        | () -> Alcotest.fail "deadline did not fire"
        | exception Resilience.Deadline_exceeded { job; elapsed } ->
          check_string "job name" "budgeted" job;
          check_bool "elapsed sane" true (elapsed >= 0.03));
        Scheduler.shutdown sch);
    tc "run_tasks with a spent budget claims no task" (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        let ran = Atomic.make 0 in
        List.iter
          (fun d ->
            match
              Scheduler.run_tasks sch ~name:"spent" ~deadline:d 8
                (fun ~member:_ _ -> Atomic.incr ran)
            with
            | () -> Alcotest.failf "deadline %g did not fire" d
            | exception Resilience.Deadline_exceeded { job; _ } ->
              check_string "job name" "spent" job)
          [ 0.0; -1.0 ];
        check_int "body never ran" 0 (Atomic.get ran);
        Scheduler.run_tasks sch 5 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "scheduler reusable" 5 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "testbench and equiv deadlines: generous passes, expired raises"
      (fun () ->
        let module Testbench = Hydra_engine.Testbench in
        let module Equiv = Hydra_verify.Equiv in
        let nl = ripple_netlist 4 in
        let in_names = List.map fst nl.N.inputs in
        let cases =
          Array.init 100 (fun k ->
              let st = Random.State.make [| 0x5ea; k |] in
              ( List.map
                  (fun name ->
                    Testbench.Bit_values
                      (name, List.init 4 (fun _ -> Random.State.bool st)))
                  in_names,
                [] ))
        in
        let free = Testbench.run_batched ~cycles:4 ~cases nl in
        let bounded =
          Testbench.run_batched ~deadline:60.0 ~cycles:4 ~cases nl
        in
        check_bool "bounded testbench is bit-identical" true (free = bounded);
        (match
           Testbench.run_batched ~deadline:0.0 ~cycles:4 ~cases nl
         with
        | _ -> Alcotest.fail "zero deadline did not fire"
        | exception Resilience.Deadline_exceeded { job; _ } ->
          check_string "testbench job name" "testbench" job);
        (match
           Equiv.wide_random_netlists ~passes:2 ~cycles:4 ~deadline:60.0 nl nl
         with
        | Equiv.Seq_equivalent -> ()
        | Equiv.Seq_mismatch _ -> Alcotest.fail "self-equivalence failed");
        match
          Equiv.wide_random_netlists ~passes:4 ~cycles:4 ~deadline:0.0 nl nl
        with
        | _ -> Alcotest.fail "zero equiv deadline did not fire"
        | exception Resilience.Deadline_exceeded _ -> ());
    tc "checkpoint interrupts a doomed long task" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let bailed = Atomic.make false in
        let jr = ref None in
        let j =
          Scheduler.submit ~name:"long" ~deadline:0.03 sch ~tasks:1
            (fun ~member:_ _ ->
              (* a single long chunk that cooperates: the deadline fires
                 mid-task and the next checkpoint raises *)
              match
                for _ = 1 to 500 do
                  Scheduler.checkpoint sch (Option.get !jr);
                  Unix.sleepf 0.002
                done
              with
              | () -> ()
              | exception Scheduler.Interrupted ->
                Atomic.set bailed true;
                raise Scheduler.Interrupted)
        in
        jr := Some j;
        Scheduler.run sch;
        check_bool "checkpoint fired" true (Atomic.get bailed);
        check_bool "timed out" true
          (Scheduler.status sch j = Scheduler.Timed_out);
        Scheduler.shutdown sch);
  ]

(* Retry --------------------------------------------------------------- *)

let retry_tests =
  [
    tc "transient failures recover within the attempt budget" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let failures = Hashtbl.create 8 in
        let policy =
          Resilience.retry ~max_attempts:4 ~base_delay:0.001 ~max_delay:0.01 ()
        in
        let j =
          Scheduler.submit ~name:"flaky" ~retry:policy sch ~tasks:6
            (fun ~member:_ i ->
              let n = try Hashtbl.find failures i with Not_found -> 0 in
              if n < 2 then begin
                Hashtbl.replace failures i (n + 1);
                failwith "transient glitch"
              end)
        in
        Scheduler.run sch;
        check_bool "recovered" true (Scheduler.status sch j = Scheduler.Done);
        (* 6 tasks x 2 failed attempts each, every one journaled *)
        check_int "attempts journaled" 12 (List.length (Scheduler.trail sch j));
        check_bool "journal names the retry" true (trail_has sch j "retry in");
        Scheduler.shutdown sch);
    tc "attempts capped: permanent failure with journal" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let policy =
          Resilience.retry ~max_attempts:3 ~base_delay:0.0005 ()
        in
        let tries = Atomic.make 0 in
        let j =
          Scheduler.submit ~name:"doomed" ~retry:policy sch ~tasks:1
            (fun ~member:_ _ ->
              Atomic.incr tries;
              failwith "always broken")
        in
        Scheduler.run sch;
        check_int "exactly max_attempts tries" 3 (Atomic.get tries);
        check_bool "failed" true
          (match Scheduler.status sch j with
          | Scheduler.Failed _ -> true
          | _ -> false);
        check_bool "journal records the exhaustion" true
          (trail_has sch j "failed permanently");
        Scheduler.shutdown sch);
    tc "non-transient exceptions are not retried" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let policy = Resilience.retry ~max_attempts:5 () in
        let tries = Atomic.make 0 in
        let j =
          Scheduler.submit ~name:"buggy" ~retry:policy sch ~tasks:1
            (fun ~member:_ _ ->
              Atomic.incr tries;
              invalid_arg "programming error")
        in
        Scheduler.run sch;
        check_int "one try only" 1 (Atomic.get tries);
        check_bool "failed" true
          (match Scheduler.status sch j with
          | Scheduler.Failed (Invalid_argument _) -> true
          | _ -> false);
        Scheduler.shutdown sch);
    qc ~count:100 "backoff: deterministic, inside the jittered envelope"
      QCheck2.Gen.(pair (int_range 1 12) (int_range 0 10_000))
      (fun (attempt, seed) ->
        let p =
          Resilience.retry ~max_attempts:20 ~base_delay:0.002 ~max_delay:0.25
            ~jitter:0.5 ()
        in
        let d1 = Resilience.backoff p ~attempt ~seed in
        let d2 = Resilience.backoff p ~attempt ~seed in
        let envelope =
          Float.min 0.25 (0.002 *. (2.0 ** float_of_int (attempt - 1)))
        in
        d1 = d2
        && d1 <= envelope +. 1e-12
        && d1 >= (envelope *. 0.5) -. 1e-12);
  ]

(* Watchdog ------------------------------------------------------------ *)

let watchdog_tests =
  [
    tc "stuck member fails its job with a site witness" (fun () ->
        let sch = Scheduler.create ~domains:2 ~watchdog:0.05 () in
        let jr = ref None in
        let j =
          Scheduler.submit ~name:"sleepy" sch ~tasks:1 (fun ~member:_ _ ->
              (* never heartbeats: spin until the watchdog dooms us (or a
                 safety bound keeps the suite from wedging) *)
              let t0 = Unix.gettimeofday () in
              while
                (try
                   Scheduler.checkpoint sch (Option.get !jr);
                   true
                 with Scheduler.Interrupted -> false)
                && Unix.gettimeofday () -. t0 < 2.0
              do
                Unix.sleepf 0.005
              done)
        in
        jr := Some j;
        Scheduler.run sch;
        (match Scheduler.status sch j with
        | Scheduler.Failed (Resilience.Stuck_member { site; age; _ }) ->
          check_string "site names the job" "sleepy" site;
          check_bool "age beyond horizon" true (age > 0.05)
        | s ->
          Alcotest.failf "expected Stuck_member failure, got %s"
            (match s with
            | Scheduler.Done -> "Done"
            | Scheduler.Timed_out -> "Timed_out"
            | Scheduler.Cancelled -> "Cancelled"
            | Scheduler.Failed e -> "Failed " ^ Printexc.to_string e
            | _ -> "Pending/Running"));
        check_bool "watchdog verdict journaled" true
          (trail_has sch j "watchdog");
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch 4 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "team survives the stuck member" 4 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "heartbeats keep an honest slow task alive" (fun () ->
        let sch = Scheduler.create ~domains:2 ~watchdog:0.08 () in
        let j =
          Scheduler.submit ~name:"slow-but-alive" sch ~tasks:1
            (fun ~member _ ->
              for _ = 1 to 15 do
                Unix.sleepf 0.01;
                Scheduler.beat sch ~member
              done)
        in
        Scheduler.run sch;
        check_bool "done, not killed" true
          (Scheduler.status sch j = Scheduler.Done);
        Scheduler.shutdown sch);
  ]

(* Admission / shedding ------------------------------------------------- *)

let admission_tests =
  [
    tc "acquire degrades in word quanta before shedding" (fun () ->
        let a = Resilience.admission ~max_lanes:124 () in
        (match Resilience.acquire a ~lanes:124 with
        | `Granted 124 -> ()
        | _ -> Alcotest.fail "whole budget should fit");
        Resilience.release a ~lanes:124;
        (match Resilience.acquire a ~lanes:500 with
        | `Granted 124 -> ()  (* degraded to the budget, not rejected *)
        | `Granted g -> Alcotest.failf "expected 124, granted %d" g
        | `Shed -> Alcotest.fail "degradable request was shed");
        (* 0 lanes free: less than one quantum, so now we shed *)
        (match Resilience.acquire a ~lanes:62 with
        | `Shed -> ()
        | `Granted g -> Alcotest.failf "over-budget grant of %d" g);
        Resilience.release a ~lanes:124;
        let s = Resilience.admission_stats a in
        check_int "admitted" 2 s.Resilience.admitted;
        check_int "degraded" 1 s.Resilience.degraded;
        check_int "shed" 1 s.Resilience.shed;
        check_int "all released" 0 s.Resilience.in_flight_lanes);
    tc "scheduler sheds the lowest-priority job past the lane budget"
      (fun () ->
        let a = Resilience.admission ~max_lanes:124 () in
        let sch = Scheduler.create ~domains:1 ~admission:a () in
        let mk name prio =
          Scheduler.submit ~name ~priority:prio ~lanes:62 sch ~tasks:1
            (fun ~member:_ _ -> ())
        in
        let j1 = mk "important" 1 in
        let j2 = mk "urgent" 2 in
        let j3 = mk "background" 0 in
        Scheduler.run sch;
        check_bool "high priorities ran" true
          (Scheduler.status sch j1 = Scheduler.Done
          && Scheduler.status sch j2 = Scheduler.Done);
        check_bool "lowest priority shed" true
          (Scheduler.status sch j3 = Scheduler.Cancelled);
        check_bool "shed journaled" true (trail_has sch j3 "shed");
        check_int "controller counted it" 1
          (Resilience.admission_stats a).Resilience.shed;
        Scheduler.shutdown sch);
    tc "run_tasks surfaces Shed for an unadmittable job" (fun () ->
        let a = Resilience.admission ~max_lanes:62 () in
        let sch = Scheduler.create ~domains:1 ~admission:a () in
        (match
           Scheduler.run_tasks sch ~name:"too-big" ~lanes:600 3
             (fun ~member:_ _ -> ())
         with
        | () -> Alcotest.fail "over-budget job was not shed"
        | exception Resilience.Shed { job; _ } ->
          check_string "job name" "too-big" job);
        Scheduler.shutdown sch);
    tc "campaign degrades slab words under admission, verdicts identical"
      (fun () ->
        let nl = ripple_netlist 8 in
        let faults = Campaign.all_stuck_at nl in
        let stimulus = Campaign.random_stimulus ~seed:7 ~cycles:10 nl in
        let baseline =
          Campaign.run ~engine:(`Slab 4) nl ~faults ~stimulus ~cycles:10
        in
        let a = Resilience.admission ~max_lanes:124 () in
        let degraded =
          Campaign.run ~engine:(`Slab 4) ~admission:a nl ~faults ~stimulus
            ~cycles:10
        in
        check_bool "verdicts bit-identical after degradation" true
          (baseline.Campaign.verdicts = degraded.Campaign.verdicts);
        let s = Resilience.admission_stats a in
        check_int "ran degraded" 1 s.Resilience.degraded;
        check_int "budget returned" 0 s.Resilience.in_flight_lanes);
  ]

(* Satellite 1: progress callbacks re-enter the scheduler --------------- *)

let reentrancy_tests =
  [
    tc "progress callback may cancel and submit without deadlock" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let victim = ref None in
        let spawned = ref None in
        let j =
          Scheduler.submit ~name:"driver" ~priority:5 sch ~tasks:3
            ~progress:(fun ~done_ ~total:_ ->
              (* both calls take the scheduler lock internally: this
                 deadlocks (and times the suite out) if progress ever
                 runs under the claim lock *)
              if done_ = 1 then Scheduler.cancel sch (Option.get !victim);
              if done_ = 2 then
                spawned :=
                  Some
                    (Scheduler.submit ~name:"from-progress" sch ~tasks:2
                       (fun ~member:_ _ -> ())))
            (fun ~member:_ _ -> ())
        in
        victim :=
          Some
            (Scheduler.submit ~name:"victim" ~priority:(-1) sch ~tasks:100
               (fun ~member:_ _ -> ()));
        Scheduler.run sch;
        check_bool "driver done" true (Scheduler.status sch j = Scheduler.Done);
        check_bool "victim cancelled from progress" true
          (Scheduler.status sch (Option.get !victim) = Scheduler.Cancelled);
        check_bool "job submitted from progress ran" true
          (Scheduler.status sch (Option.get !spawned) = Scheduler.Done);
        Scheduler.shutdown sch);
    tc "progress exception fails the job" (fun () ->
        let sch = Scheduler.create ~domains:1 () in
        let j =
          Scheduler.submit ~name:"bad-progress" sch ~tasks:3
            ~progress:(fun ~done_ ~total:_ ->
              if done_ = 2 then failwith "progress blew up")
            (fun ~member:_ _ -> ())
        in
        Scheduler.run sch;
        check_bool "failed via progress" true
          (match Scheduler.status sch j with
          | Scheduler.Failed (Failure _) -> true
          | _ -> false);
        Scheduler.shutdown sch);
  ]

(* Satellite 3: stuck-cycle backstop ------------------------------------ *)

let backstop_tests =
  [
    tc "mid-run-submitted cycle trips the backstop, scheduler reusable"
      (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        let d1r = ref None and d2r = ref None in
        let x =
          Scheduler.submit ~name:"x" sch ~tasks:1 (fun ~member:_ _ ->
              (* the up-front check in [run] cannot see this cycle: it is
                 created while the team is already running *)
              let d1 =
                Scheduler.submit ~name:"d1" sch ~tasks:1 (fun ~member:_ _ ->
                    Alcotest.fail "cyclic job ran")
              in
              let d2 =
                Scheduler.submit ~name:"d2" ~deps:[ d1 ] sch ~tasks:1
                  (fun ~member:_ _ -> Alcotest.fail "cyclic job ran")
              in
              Scheduler.depend sch ~job:d1 ~on:[ d2 ];
              d1r := Some d1;
              d2r := Some d2)
        in
        (match Scheduler.run sch with
        | () -> Alcotest.fail "mid-run cycle not detected"
        | exception Scheduler.Dependency_cycle w ->
          check_bool "witness names the cycle" true
            (List.sort compare w = [ "d1"; "d2" ]));
        check_bool "honest job completed" true
          (Scheduler.status sch x = Scheduler.Done);
        List.iter
          (fun jr ->
            let j = Option.get !jr in
            check_bool "cyclic job cancelled" true
              (Scheduler.status sch j = Scheduler.Cancelled);
            check_bool "backstop journaled" true
              (trail_has sch j "backstop"))
          [ d1r; d2r ];
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch 6 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "reusable after backstop" 6 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "backoff-parked jobs do not trip the backstop" (fun () ->
        (* a retrying job whose whole team is waiting on its backoff due
           time must park (the ticker wakes it), not be mistaken for a
           stuck cycle *)
        let sch = Scheduler.create ~domains:2 () in
        let policy =
          Resilience.retry ~max_attempts:3 ~base_delay:0.02 ~max_delay:0.05
            ~jitter:0.0 ()
        in
        let failed_once = Atomic.make false in
        let j =
          Scheduler.submit ~name:"parked" ~retry:policy sch ~tasks:1
            (fun ~member:_ _ ->
              if not (Atomic.exchange failed_once true) then
                failwith "first attempt fails")
        in
        Scheduler.run sch;
        check_bool "recovered after the parked backoff" true
          (Scheduler.status sch j = Scheduler.Done);
        Scheduler.shutdown sch);
    qc ~count:12 "backstop firing always leaves the scheduler reusable"
      QCheck2.Gen.(pair (int_range 2 4) (int_range 1 6))
      (fun (ring, extra) ->
        let sch = Scheduler.create ~domains:2 () in
        (* the ring jobs also depend on the driver job, so the second
           member cannot claim one before [link] closes the ring:
           [depend] is only defined before a job's first claim *)
        let driver = ref None in
        let body ~member:_ _ =
          let jobs =
            List.init ring (fun i ->
                Scheduler.submit
                  ~name:(Printf.sprintf "ring%d" i)
                  ~deps:(Option.to_list !driver)
                  sch ~tasks:1
                  (fun ~member:_ _ -> ()))
          in
          (* close the ring: each depends on the next, last on first *)
          let rec link = function
            | a :: (b :: _ as rest) ->
              Scheduler.depend sch ~job:a ~on:[ b ];
              link rest
            | [ last ] -> Scheduler.depend sch ~job:last ~on:[ List.hd jobs ]
            | [] -> ()
          in
          link jobs
        in
        driver := Some (Scheduler.submit ~name:"driver" sch ~tasks:1 body);
        let tripped =
          match Scheduler.run sch with
          | () -> false
          | exception Scheduler.Dependency_cycle _ -> true
        in
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch extra (fun ~member:_ _ -> Atomic.incr ran);
        let ok = tripped && Atomic.get ran = extra in
        Scheduler.shutdown sch;
        ok);
  ]

(* Satellite 2: cache eviction counter exactness ------------------------ *)

let cache_counter_tests =
  [
    tc "sequential evictions: misses = entries + evictions exactly"
      (fun () ->
        let cache = Cache.create ~capacity:3 () in
        for n = 1 to 10 do
          ignore (Cache.compile cache (ripple_netlist n))
        done;
        let s = Cache.stats cache in
        check_int "entries at capacity" 3 s.Cache.entries;
        check_int "misses" 10 s.Cache.misses;
        (* the satellite regression: every removed entry is counted as
           an eviction, no silent count resets *)
        check_int "evictions exact" 7 s.Cache.evictions);
    tc "concurrent hammering keeps counters consistent" (fun () ->
        let cache = Cache.create ~capacity:4 () in
        let pool = Hydra_parallel.Pool.create ~domains:4 () in
        let nls = Array.init 8 (fun i -> ripple_netlist (i + 1)) in
        Hydra_parallel.Pool.run_team pool (fun member ->
            for round = 0 to 14 do
              ignore (Cache.compile cache nls.((member + round) mod 8))
            done);
        Hydra_parallel.Pool.shutdown pool;
        let s = Cache.stats cache in
        check_bool "capacity respected" true (s.Cache.entries <= 4);
        (* each miss inserts at most one entry (racing duplicates defer),
           and every insert is either still resident or was counted out *)
        check_bool "entries + evictions <= misses" true
          (s.Cache.entries + s.Cache.evictions <= s.Cache.misses);
        check_bool "evictions happened" true (s.Cache.evictions > 0));
    tc "fault hook storms leave the cache consistent" (fun () ->
        let cache = Cache.create ~capacity:3 () in
        let plan = Chaos.plan ~seed:99 ~delay_rate:0.0 ~exn_rate:0.5 () in
        Cache.set_fault_hook cache (Some (Chaos.hook plan ~label:"cache"));
        let injected = ref 0 in
        for n = 1 to 8 do
          match Cache.compile cache (ripple_netlist n) with
          | _ -> ()
          | exception Chaos.Injected _ -> incr injected
        done;
        check_bool "storm actually injected" true (!injected > 0);
        Cache.set_fault_hook cache None;
        (* after the storm: hits and inserts still work, counters sane *)
        let nl = ripple_netlist 2 in
        let p1 = Cache.compile cache nl in
        let p2 = Cache.compile cache nl in
        check_bool "post-storm hit is the same program" true (p1 == p2);
        let s = Cache.stats cache in
        check_bool "capacity respected" true (s.Cache.entries <= 3);
        check_bool "counters consistent" true
          (s.Cache.entries + s.Cache.evictions <= s.Cache.misses));
  ]

(* Chaos soak ----------------------------------------------------------- *)

(* The acceptance soak: storms of injected delays, exceptions and stuck
   spins over many scheduler jobs, with retry policies recovering.  The
   invariants: no lost tasks, no double-completions (every task's
   success counter is exactly 1), all jobs settle, and the scheduler
   stays reusable.  [HYDRA_CHAOS_FAULTS] scales the storm (CI runs
   10000+; the default keeps tier-1 fast). *)
let chaos_soak_target () =
  match int_of_string_opt (try Sys.getenv "HYDRA_CHAOS_FAULTS" with Not_found -> "") with
  | Some n when n > 0 -> n
  | _ -> 400

let chaos_tests =
  [
    tc "soak: storms lose nothing, double-complete nothing" (fun () ->
        let target = chaos_soak_target () in
        let sch = Scheduler.create ~domains:3 () in
        let policy =
          Resilience.retry ~max_attempts:15 ~base_delay:0.0003
            ~max_delay:0.003 ()
        in
        let jobs_per_round = 8 and tasks_per_job = 100 in
        let total_injected = ref 0 in
        let round = ref 0 in
        while !total_injected < target do
          incr round;
          let plan =
            Chaos.plan ~seed:(0xbad + !round) ~delay_rate:0.15 ~exn_rate:0.3
              ~stuck_rate:0.02 ~max_delay:0.001 ~stuck_spin:0.01 ()
          in
          let success =
            Array.init jobs_per_round (fun _ ->
                Array.init tasks_per_job (fun _ -> Atomic.make 0))
          in
          let jobs =
            List.init jobs_per_round (fun jn ->
                Scheduler.submit
                  ~name:(Printf.sprintf "storm%d.%d" !round jn)
                  ~priority:(jn mod 3) ~retry:policy sch ~tasks:tasks_per_job
                  (Chaos.wrap plan ~label:(Printf.sprintf "j%d" jn)
                     (fun ~member:_ i -> Atomic.incr success.(jn).(i))))
          in
          Scheduler.run sch;
          List.iteri
            (fun jn j ->
              (match Scheduler.status sch j with
              | Scheduler.Done -> ()
              | s ->
                Alcotest.failf "round %d job %d not Done (%s)" !round jn
                  (match s with
                  | Scheduler.Failed e -> "Failed " ^ Printexc.to_string e
                  | Scheduler.Cancelled -> "Cancelled"
                  | Scheduler.Timed_out -> "Timed_out"
                  | _ -> "unsettled"));
              Array.iteri
                (fun i c ->
                  let n = Atomic.get c in
                  if n <> 1 then
                    Alcotest.failf
                      "round %d job %d task %d completed %d times" !round jn
                      i n)
                success.(jn))
            jobs;
          let c = Chaos.injected plan in
          total_injected :=
            !total_injected + c.Chaos.delays + c.Chaos.exns + c.Chaos.stucks
        done;
        check_bool "enough chaos injected" true (!total_injected >= target);
        (* after every storm: a clean run still works *)
        let ran = Atomic.make 0 in
        Scheduler.run_tasks sch 10 (fun ~member:_ _ -> Atomic.incr ran);
        check_int "scheduler reusable after the storms" 10 (Atomic.get ran);
        Scheduler.shutdown sch);
    tc "campaign under chaos + retry stays bit-identical" (fun () ->
        let nl = ripple_netlist 8 in
        let faults = Campaign.all_stuck_at nl in
        let stimulus = Campaign.random_stimulus ~seed:7 ~cycles:10 nl in
        let clean = Campaign.run nl ~faults ~stimulus ~cycles:10 in
        let sch = Scheduler.create ~domains:2 () in
        let plan =
          Chaos.plan ~seed:1234 ~delay_rate:0.1 ~exn_rate:0.25
            ~max_delay:0.002 ()
        in
        let stormy =
          Campaign.run ~scheduler:sch
            ~retry:(Resilience.retry ~max_attempts:8 ~base_delay:0.001 ())
            ~chaos:plan nl ~faults ~stimulus ~cycles:10
        in
        Scheduler.shutdown sch;
        check_bool "verdicts bit-identical through the storm" true
          (clean.Campaign.verdicts = stormy.Campaign.verdicts);
        (* the private-scheduler path carries retry the same way *)
        List.iter
          (fun domains ->
            let private_ =
              Campaign.run ~domains
                ~retry:(Resilience.retry ~max_attempts:8 ~base_delay:0.001 ())
                ~chaos:(Chaos.plan ~seed:99 ~exn_rate:0.25 ())
                nl ~faults ~stimulus ~cycles:10
            in
            check_bool
              (Printf.sprintf "private %d-member storm bit-identical" domains)
              true
              (clean.Campaign.verdicts = private_.Campaign.verdicts))
          [ 1; 3 ];
        check_int "totals match" clean.Campaign.total stormy.Campaign.total);
    tc "chaos replay: same seed, same storm" (fun () ->
        let run_once () =
          let plan =
            Chaos.plan ~seed:77 ~delay_rate:0.2 ~exn_rate:0.3 ~max_delay:0.0005
              ()
          in
          let outcomes = ref [] in
          for task = 0 to 199 do
            (match Chaos.inject plan ~label:"replay" ~task () with
            | () -> outcomes := (task, "ok") :: !outcomes
            | exception Chaos.Injected _ ->
              outcomes := (task, "exn") :: !outcomes)
          done;
          (List.rev !outcomes, Chaos.injected plan)
        in
        let o1, c1 = run_once () in
        let o2, c2 = run_once () in
        check_bool "identical outcome sequence" true (o1 = o2);
        check_bool "identical counts" true (c1 = c2);
        check_bool "storm non-trivial" true (c1.Chaos.exns > 0));
  ]

let suite =
  deadline_tests @ retry_tests @ watchdog_tests @ admission_tests
  @ reentrancy_tests @ backstop_tests @ cache_counter_tests @ chaos_tests
