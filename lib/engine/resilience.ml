(* Resilience primitives for the execution layer: deadlines, retry
   policies with exponential backoff + deterministic jitter, and an
   overload-shedding admission controller.

   These are deliberately small, lock-light value types: the
   {!Scheduler}'s team members apply deadlines and retries themselves,
   {!Hydra_verify.Campaign} and friends expose them as optional knobs,
   and the chaos harness falsifies them.  Everything that involves
   randomness (jitter) is derived from a splitmix-style hash of
   caller-supplied integers, so a replayed run produces the identical
   schedule — the same discipline the fault campaigns use for
   intermittent coins. *)

let now () = Unix.gettimeofday ()

exception Deadline_exceeded of { job : string; elapsed : float }

exception Shed of { job : string }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { job; elapsed } ->
      Some
        (Printf.sprintf "Resilience.Deadline_exceeded(job=%S, elapsed=%.3fs)"
           job elapsed)
    | Shed { job } -> Some (Printf.sprintf "Resilience.Shed(job=%S)" job)
    | _ -> None)

(* Deterministic unit-interval hash: splitmix64 finalizer over the mixed
   seeds, mapped to [0, 1).  Pure, so replays are exact. *)
let unit_hash seeds =
  let mix h k =
    let h = Int64.logxor h (Int64.of_int k) in
    let h = Int64.mul h 0xff51afd7ed558ccdL in
    Int64.logxor h (Int64.shift_right_logical h 33)
  in
  let h = List.fold_left mix 0x9e3779b97f4a7c15L seeds in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* Retry policies ------------------------------------------------------- *)

type retry = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
  transient : exn -> bool;
}

(* Programming errors and resource exhaustion are permanent; everything
   else — injected chaos, I/O hiccups, Failure — defaults to transient. *)
let default_transient = function
  | Invalid_argument _ | Assert_failure _ | Match_failure _ | Out_of_memory
  | Stack_overflow ->
    false
  | _ -> true

let retry ?(max_attempts = 3) ?(base_delay = 0.002) ?(max_delay = 0.25)
    ?(jitter = 0.5) ?(transient = default_transient) () =
  if max_attempts < 1 then
    invalid_arg "Resilience.retry: max_attempts must be >= 1";
  if base_delay < 0.0 || max_delay < base_delay then
    invalid_arg "Resilience.retry: need 0 <= base_delay <= max_delay";
  if jitter < 0.0 || jitter > 1.0 then
    invalid_arg "Resilience.retry: jitter must be in [0, 1]";
  { max_attempts; base_delay; max_delay; jitter; transient }

(* Exponential backoff with deterministic jitter: attempt [a] (1-based,
   the attempt that just failed) sleeps
   [cap(base * 2^(a-1)) * (1 - jitter * u)] where [u] is hashed from the
   seeds — "full jitter below the exponential envelope", replayable. *)
let backoff policy ~attempt ~seed =
  if attempt < 1 then invalid_arg "Resilience.backoff: attempt must be >= 1";
  let envelope =
    min policy.max_delay
      (policy.base_delay *. (2.0 ** float_of_int (min 30 (attempt - 1))))
  in
  let u = unit_hash [ seed; attempt; 0x6a09 ] in
  envelope *. (1.0 -. (policy.jitter *. u))

(* Admission controller ------------------------------------------------- *)

type admission = {
  max_lanes : int;
  min_lanes : int;
  a_lock : Mutex.t;
  mutable in_flight : int;
  mutable a_admitted : int;
  mutable a_degraded : int;
  mutable a_shed : int;
}

type admission_stats = {
  admitted : int;
  degraded : int;
  shed : int;
  in_flight_lanes : int;
  max_lanes : int;
}

let admission ?(min_lanes = 62) ~max_lanes () =
  if min_lanes < 1 then
    invalid_arg "Resilience.admission: min_lanes must be >= 1";
  if max_lanes < min_lanes then
    invalid_arg "Resilience.admission: max_lanes must be >= min_lanes";
  {
    max_lanes;
    min_lanes;
    a_lock = Mutex.create ();
    in_flight = 0;
    a_admitted = 0;
    a_degraded = 0;
    a_shed = 0;
  }

let admission_stats a =
  Mutex.lock a.a_lock;
  let s =
    {
      admitted = a.a_admitted;
      degraded = a.a_degraded;
      shed = a.a_shed;
      in_flight_lanes = a.in_flight;
      max_lanes = a.max_lanes;
    }
  in
  Mutex.unlock a.a_lock;
  s

(* Reserve [lanes] lanes of budget, degrading rather than rejecting: a
   request that does not fit whole is granted the largest multiple of
   [min_lanes] that fits the free budget.  Only when less than one
   [min_lanes] quantum is free is the request shed.  Callers release
   exactly what was granted. *)
let acquire a ~lanes =
  if lanes < 1 then invalid_arg "Resilience.acquire: lanes must be >= 1";
  Mutex.lock a.a_lock;
  let free = a.max_lanes - a.in_flight in
  let verdict =
    if lanes <= free then begin
      a.in_flight <- a.in_flight + lanes;
      a.a_admitted <- a.a_admitted + 1;
      `Granted lanes
    end
    else begin
      let quanta = free / a.min_lanes in
      if quanta < 1 then begin
        a.a_shed <- a.a_shed + 1;
        `Shed
      end
      else begin
        let granted = min lanes (quanta * a.min_lanes) in
        a.in_flight <- a.in_flight + granted;
        a.a_admitted <- a.a_admitted + 1;
        a.a_degraded <- a.a_degraded + 1;
        `Granted granted
      end
    end
  in
  Mutex.unlock a.a_lock;
  verdict

let release a ~lanes =
  Mutex.lock a.a_lock;
  a.in_flight <- max 0 (a.in_flight - lanes);
  Mutex.unlock a.a_lock

let describe_admission a =
  let s = admission_stats a in
  Printf.sprintf
    "admission: %d/%d lanes in flight, %d admitted (%d degraded), %d shed"
    s.in_flight_lanes s.max_lanes s.admitted s.degraded s.shed
