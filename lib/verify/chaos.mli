(** Chaos harness: seeded, replayable fault injection for soak-testing
    the execution layer ({!Hydra_engine.Scheduler.run_tasks} bodies,
    cache lookups).

    A {!plan} decides the fate of every injection site — a (label,
    task, attempt) triple — by pure hashing from its seed: the same
    seed replays the identical storm, and a retried task re-rolls its
    fate (the attempt number is part of the site), so retry policies
    can genuinely recover.  Faults come in two flavors, partitioned by
    rate: injected delays (up to [max_delay]) and injected exceptions
    ({!Injected}, classified transient by
    {!Hydra_engine.Resilience.default_transient}). *)

exception Injected of { label : string; task : int; attempt : int }
(** The injected failure.  Not a programming error, so default retry
    policies classify it transient. *)

type plan

type counts = { delays : int; exns : int }

val plan :
  ?delay_rate:float ->
  ?exn_rate:float ->
  ?max_delay:float ->
  seed:int ->
  unit ->
  plan
(** Rates are probabilities per site in [0,1], summing to at most 1
    (defaults: 5% delay, 5% exception); [max_delay] (default 5 ms)
    bounds injected delays.  Raises [Invalid_argument] on nonsense. *)

val inject : plan -> label:string -> task:int -> unit
(** Roll and execute this site's fate: nothing, a sleep, or an
    {!Injected} raise.  Each call under the same (label, task) advances
    the attempt counter. *)

val wrap :
  plan ->
  label:string ->
  (member:int -> int -> unit) ->
  member:int ->
  int ->
  unit
(** [wrap p ~label body] is a task body that injects at entry and then
    runs [body] — dress any {!Hydra_engine.Scheduler.run_tasks} body
    with it. *)

val hook : plan -> label:string -> string -> unit
(** A {!Hydra_engine.Cache.set_fault_hook} function: injects at the
    cache's lookup/insert sites (each site rolls an independent
    fate). *)

val injected : plan -> counts
(** How many faults of each flavor this plan has injected so far. *)
