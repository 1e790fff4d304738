(** Resilience primitives for the execution layer: deadlines, retry
    policies (exponential backoff with deterministic jitter), and an
    overload-shedding admission controller.

    {!Scheduler.run_tasks} applies [?deadline] and [?retry] in its team
    members; {!Hydra_verify.Campaign}, {!Hydra_verify.Equiv} and
    {!Testbench} expose them as client knobs, and [Campaign.run
    ?admission] reserves lanes through {!acquire}.  All randomness (jitter)
    is hashed from caller-supplied seeds, so replayed runs produce
    identical schedules — the precondition for the chaos harness being
    able to reproduce any storm it reports. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the time base every
    deadline in the engine uses. *)

val unit_hash : int list -> float
(** Deterministic hash of the seeds to the unit interval [0, 1)
    (splitmix64 finalizer) — the engine's one source of "randomness",
    pure so every schedule and chaos storm replays exactly. *)

exception Deadline_exceeded of { job : string; elapsed : float }
(** A job exceeded its deadline: raised by {!Scheduler.run_tasks} (and
    through it [Campaign.run ?deadline], …) when some task did not
    complete within the budget. *)

exception Shed of { job : string }
(** An admission controller rejected this job to shed load. *)

(** {2 Retry policies} *)

type retry = {
  max_attempts : int;  (** total attempts per task, including the first *)
  base_delay : float;  (** first backoff, seconds *)
  max_delay : float;  (** backoff envelope cap, seconds *)
  jitter : float;  (** fraction of the envelope randomized away, [0,1] *)
  transient : exn -> bool;  (** retry this exception at all? *)
}

val default_transient : exn -> bool
(** Programming errors ([Invalid_argument], [Assert_failure],
    [Match_failure]) and resource exhaustion ([Out_of_memory],
    [Stack_overflow]) are permanent; everything else is transient. *)

val retry :
  ?max_attempts:int ->
  ?base_delay:float ->
  ?max_delay:float ->
  ?jitter:float ->
  ?transient:(exn -> bool) ->
  unit ->
  retry
(** Defaults: 3 attempts, 2 ms base, 250 ms cap, jitter 0.5,
    {!default_transient}.  Raises [Invalid_argument] on a nonsensical
    combination (attempts < 1, negative delays, jitter outside [0,1]). *)

val backoff : retry -> attempt:int -> seed:int -> float
(** Backoff after failed attempt [attempt] (1-based): the exponential
    envelope [min max_delay (base_delay * 2^(attempt-1))] shrunk by a
    deterministic jitter fraction hashed from [seed] and [attempt] —
    the same seeds always produce the same delay, so retry schedules
    replay exactly. *)

(** {2 Admission control} *)

type admission
(** A shared in-flight-lanes budget: engine-lane demand is reserved
    through {!acquire} and returned through {!release}; demand past the
    budget degrades (smaller grants) before it sheds (rejection), and
    every decision is counted. *)

type admission_stats = {
  admitted : int;
  degraded : int;  (** admissions granted fewer lanes than requested *)
  shed : int;  (** requests rejected outright *)
  in_flight_lanes : int;
  max_lanes : int;
}

val admission : ?min_lanes:int -> max_lanes:int -> unit -> admission
(** A controller with [max_lanes] total budget and a degradation floor
    of [min_lanes] (default 62 — one engine word): grants are multiples
    of the floor, and a request is shed only when less than one floor
    quantum is free. *)

val acquire : admission -> lanes:int -> [ `Granted of int | `Shed ]
(** Reserve up to [lanes] lanes.  Fits whole: granted as asked.  Past
    the budget: degraded to the largest multiple of [min_lanes] that
    fits ([`Granted n] with [n < lanes], counted in [degraded]).  Less
    than one quantum free: [`Shed].  Callers must {!release} exactly
    the granted amount when done. *)

val release : admission -> lanes:int -> unit

val admission_stats : admission -> admission_stats

val describe_admission : admission -> string
