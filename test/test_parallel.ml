(* Tests for the domain pool. *)

open Util
module Pool = Hydra_parallel.Pool

let suite =
  [
    tc "parallel_for covers every index exactly once" (fun () ->
        let pool = Pool.create ~domains:4 () in
        let n = 10_000 in
        let hits = Array.make n 0 in
        Pool.parallel_for pool 0 n (fun i -> hits.(i) <- hits.(i) + 1);
        Pool.shutdown pool;
        check_bool "all once" true (Array.for_all (fun h -> h = 1) hits));
    tc "parallel_for with offset range" (fun () ->
        let pool = Pool.create ~domains:3 () in
        let hits = Array.make 100 0 in
        Pool.parallel_for pool 50 100 (fun i -> hits.(i) <- 1);
        Pool.shutdown pool;
        check_int "first half untouched" 0
          (Array.fold_left ( + ) 0 (Array.sub hits 0 50));
        check_int "second half done" 50
          (Array.fold_left ( + ) 0 (Array.sub hits 50 50)));
    tc "parallel_for empty range" (fun () ->
        let pool = Pool.create ~domains:2 () in
        Pool.parallel_for pool 5 5 (fun _ -> Alcotest.fail "must not run");
        Pool.parallel_for pool 5 3 (fun _ -> Alcotest.fail "must not run");
        Pool.shutdown pool);
    tc "single-domain pool runs inline" (fun () ->
        let pool = Pool.create ~domains:1 () in
        check_int "size" 1 (Pool.size pool);
        let sum = ref 0 in
        Pool.parallel_for pool 0 100 (fun i -> sum := !sum + i);
        Pool.shutdown pool;
        check_int "sum" 4950 !sum);
    tc "reusable across many jobs" (fun () ->
        let pool = Pool.create ~domains:4 () in
        for _ = 1 to 50 do
          let acc = Array.make 512 0 in
          Pool.parallel_for pool 0 512 (fun i -> acc.(i) <- i * 2);
          assert (acc.(511) = 1022)
        done;
        Pool.shutdown pool);
    tc "exceptions propagate to caller" (fun () ->
        let pool = Pool.create ~domains:4 () in
        (match
           Pool.parallel_for pool 0 1000 (fun i ->
               if i = 777 then failwith "boom")
         with
        | () -> Alcotest.fail "expected exception"
        | exception Failure msg -> check_string "msg" "boom" msg);
        (* pool still usable after an exception *)
        let ok = ref 0 in
        Pool.parallel_for pool 0 100 (fun _ -> ignore (Atomic.make 0));
        Pool.parallel_for pool 0 100 (fun _ -> incr ok);
        Pool.shutdown pool);
    tc "many domains requested is clamped sanely" (fun () ->
        let pool = Pool.create ~domains:0 () in
        check_int "at least 1" 1 (Pool.size pool);
        Pool.shutdown pool);
    (* exception stress: the failing index sweeps the range, so over the
       iterations the raising chunk lands both on the caller (low
       indices: the caller participates first) and on workers (high
       indices), and the recording CAS races between domains *)
    tc "exception stress: raiser on caller and worker chunks" (fun () ->
        let pool = Pool.create ~domains:4 () in
        let n = 4000 in
        for round = 0 to 39 do
          let bad = round * 100 in
          (match
             Pool.parallel_for ~chunk:16 pool 0 n (fun i ->
                 if i = bad then raise (Failure (string_of_int bad)))
           with
          | () -> Alcotest.fail "expected exception"
          | exception Failure msg -> check_string "msg" (string_of_int bad) msg);
          (* the pool must come back clean after every failure *)
          let sum = Atomic.make 0 in
          Pool.parallel_for pool 0 100 (fun i ->
              ignore (Atomic.fetch_and_add sum i));
          check_int "usable after exception" 4950 (Atomic.get sum)
        done;
        Pool.shutdown pool);
    tc "exception stress: multiple concurrent raisers, first one wins" (fun () ->
        let pool = Pool.create ~domains:4 () in
        for _ = 1 to 20 do
          match
            Pool.parallel_for ~chunk:1 pool 0 64 (fun i ->
                raise (Failure (string_of_int i)))
          with
          | () -> Alcotest.fail "expected exception"
          | exception Failure _ -> ()
        done;
        Pool.shutdown pool);
    tc "run_team: every membership runs exactly once" (fun () ->
        let pool = Pool.create ~domains:4 () in
        let hits = Array.make (Pool.size pool) 0 in
        for _ = 1 to 25 do
          Array.fill hits 0 (Array.length hits) 0;
          Pool.run_team pool (fun m -> hits.(m) <- hits.(m) + 1);
          check_bool "all memberships once" true
            (Array.for_all (fun h -> h = 1) hits)
        done;
        Pool.shutdown pool);
    tc "run_team: members drain a shared queue to completion" (fun () ->
        let pool = Pool.create ~domains:4 () in
        let n = 1000 in
        let next = Atomic.make 0 in
        let done_ = Array.make n false in
        Pool.run_team pool (fun _member ->
            let rec drain () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                done_.(i) <- true;
                drain ()
              end
            in
            drain ());
        Pool.shutdown pool;
        check_bool "queue drained" true (Array.for_all Fun.id done_));
    tc "run_team: exception propagates, team survives" (fun () ->
        let pool = Pool.create ~domains:4 () in
        (match Pool.run_team pool (fun m -> if m = 2 then failwith "team") with
        | () -> Alcotest.fail "expected exception"
        | exception Failure msg -> check_string "msg" "team" msg);
        let count = Atomic.make 0 in
        Pool.run_team pool (fun _ -> Atomic.incr count);
        check_int "usable after exception" (Pool.size pool) (Atomic.get count);
        Pool.shutdown pool);
    tc "run_team: single-domain pool runs the one membership inline" (fun () ->
        let pool = Pool.create ~domains:1 () in
        let hit = ref (-1) in
        Pool.run_team pool (fun m -> hit := m);
        Pool.shutdown pool;
        check_int "membership 0" 0 !hit);
  ]
