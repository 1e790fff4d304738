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
  ?sharded:Sharded.t ->
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
    L = 62*K) to batch wider.  With [?sharded] — which must have been
    created from the same netlist, and is mutually exclusive with
    [?engine] — the chunks ([L = Sharded.lanes]) become sharded jobs on
    its persistent per-domain replicas.  With [?scheduler], chunks run as tasks of one
    job on the scheduler's team: alone it shards the default (or
    [?engine]) simulation over per-member replicas; combined with
    [?sharded] the two must share one pool ([Scheduler.pool] physically
    equal to [Sharded.pool], e.g. [Sharded.of_base ~pool:(Scheduler.pool
    sch)]) so member indices line up — otherwise [Invalid_argument].
    Results are bit-identical in every mode.  Report [k] matches what
    {!run} would return for case [k] on the compiled engine.

    [?deadline] bounds the whole batch in wall-clock seconds, enforced
    at chunk boundaries: past it, {!Resilience.Deadline_exceeded} is
    raised (scheduler modes time out the underlying job, which is the
    same exception to the caller). *)

val report_string : report -> string
(** "PASS (...)" or the failure list plus ASCII waveforms. *)
