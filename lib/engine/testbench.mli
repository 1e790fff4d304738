(** A declarative test bench over named netlist ports (paper section 6.4's
    simulation-driver toolkit): drive bits or words with per-cycle values
    or generator functions, check expectations, and get a readable report
    with waveforms on failure. *)

type stimulus =
  | Bit_values of string * bool list
      (** port, value per cycle; the last value holds *)
  | Bit_fun of string * (int -> bool)
  | Word_values of string * int * int list
      (** port-name prefix, width, value per cycle.  The word's bit ports
          are [prefix0 .. prefix{w-1}], MSB first. *)
  | Word_fun of string * int * (int -> int)

type expectation =
  | Expect_bit of { cycle : int; port : string; value : bool }
  | Expect_word of { cycle : int; prefix : string; width : int; value : int }

type failure = {
  at_cycle : int;
  what : string;
  expected : string;
  got : string;
}

type report = {
  cycles_run : int;
  failures : failure list;
  observed : (string * bool list) list;  (** every output's full trace *)
}

val passed : report -> bool

val run :
  ?engine:[ `Compiled | `Interp ] ->
  cycles:int ->
  stimuli:stimulus list ->
  expectations:expectation list ->
  Hydra_netlist.Netlist.t ->
  report

val run_batched :
  ?scheduler:Scheduler.t ->
  ?engine:(module Engine_intf.S) ->
  ?deadline:float ->
  cycles:int ->
  cases:(stimulus list * expectation list) array ->
  Hydra_netlist.Netlist.t ->
  report array
(** Run many independent test-bench cases against the same netlist on a
    lane-packed engine: with [L] lanes per chunk, case [k] rides in lane
    [k mod L] of run [k / L], so N cases cost ceil(N/L) simulations.
    Cases may drive different ports (undriven ports hold 0 in that lane,
    as in a scalar run).  The engine defaults to the 62-lane
    [Slab.engine 1] (L = 62); pass [?engine] (e.g. [Slab.engine 8],
    L = 62*K) to batch wider.  The chunks are the tasks of one
    {!Scheduler} job: with [?scheduler], on its shared team, each member
    on its own replica of the engine; otherwise on a private one-member
    scheduler.  Results are bit-identical in every mode.  Report [k]
    matches what {!run} would return for case [k] on the compiled
    engine.

    [?deadline] bounds the whole batch in wall-clock seconds: the job
    carries it and times out at a chunk boundary, raising
    {!Resilience.Deadline_exceeded}. *)

val report_string : report -> string
(** "PASS (...)" or the failure list plus ASCII waveforms. *)
