(* The one fan-out call every tool chunks through (Campaign, Equiv,
   Fault, Testbench, Sharded, bench), and the only caller of
   [Pool.run_team].

   A fan-out is one [Pool.run_team] call: each team member claims task
   indices from a shared atomic counter and runs [body ~member i] until
   the counter passes [n].  [member] indexes the claiming team member
   (0 .. domains-1), which is how engine clients pick a per-member
   replica.  Tasks are chunk-sized (one 62·K-lane engine pass, a whole
   equivalence pass), so one atomic claim per task is noise next to the
   work.

   Resilience lives in the members themselves: a transient failure is
   retried in place after its backoff (cut short at the deadline), the
   first permanent failure stops further claims and is re-raised after
   the join, and a passed deadline stops claims too. *)

module Pool = Hydra_parallel.Pool

type t = Pool.t

let create ?domains () = Pool.create ?domains ()
let domains = Pool.size
let shutdown = Pool.shutdown

let run_tasks t ?(name = "job") ?deadline ?retry n body =
  let start = Resilience.now () in
  let expired () =
    raise
      (Resilience.Deadline_exceeded
         { job = name; elapsed = Resilience.now () -. start })
  in
  (match deadline with Some d when d <= 0.0 -> expired () | _ -> ());
  if n > 0 then begin
    let stop = match deadline with Some d -> start +. d | None -> infinity in
    let live () = stop = infinity || Resilience.now () <= stop in
    let next = Atomic.make 0 and completed = Atomic.make 0 in
    let failure = Atomic.make None in
    (* run task [i] until it completes, fails permanently, or the
       deadline or a sibling's failure makes retrying pointless *)
    let rec attempt ~member i k =
      match body ~member i with
      | () -> if live () then Atomic.incr completed
      | exception e -> (
        match retry with
        | Some p
          when k < p.Resilience.max_attempts && p.Resilience.transient e ->
          let delay = Resilience.backoff p ~attempt:k ~seed:i in
          let delay = Float.min delay (stop -. Resilience.now ()) in
          if delay > 0.0 then Unix.sleepf delay;
          if live () && Atomic.get failure = None then attempt ~member i (k + 1)
        | _ -> ignore (Atomic.compare_and_set failure None (Some e)))
    in
    let rec claim member =
      if Atomic.get failure = None && live () then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          attempt ~member i 1;
          claim member
        end
      end
    in
    Pool.run_team t claim;
    match Atomic.get failure with
    | Some e -> raise e
    | None -> if Atomic.get completed < n then expired ()
  end

(* Chunking policy ------------------------------------------------------ *)

(* The one lane-packing computation: split [total] cases into chunks of
   [lanes - reserved] so each chunk fills one engine instance's lanes,
   minus any lanes the client keeps for itself (Campaign reserves lane 0
   of every chunk for the golden run). *)
type chunks = { count : int; per_chunk : int; bounds : int -> int * int }

let chunking ?(reserved = 0) ~lanes total =
  if reserved < 0 then invalid_arg "Scheduler.chunking: reserved must be >= 0";
  if lanes <= reserved then
    invalid_arg
      (Printf.sprintf
         "Scheduler.chunking: lanes (%d) must exceed reserved lanes (%d)"
         lanes reserved);
  let per_chunk = lanes - reserved in
  let count = if total <= 0 then 0 else (total + per_chunk - 1) / per_chunk in
  {
    count;
    per_chunk;
    bounds =
      (fun c ->
        let lo = c * per_chunk in
        (lo, min total (lo + per_chunk)));
  }
