(** Simulation driver (paper section 6.4): loads a machine-language
    program via DMA, pulses start, runs the gate-level system in the
    stream semantics, and formats the control/datapath outputs.  Events
    (register writes, memory writes, taken jumps, halt) are extracted in
    {!Golden.event} form so runs can be compared with the golden model
    exactly. *)

type trace_entry = {
  cycle : int;
  state : string;  (** control state name ("-" during DMA) *)
  pc : int;
  ir : int;
  ad : int;
  r : int;
  a : int;
  b : int;
  ma : int;
  indat : int;
}

type result = {
  trace : trace_entry list;
  events : Golden.event list;
  cycles : int;  (** clock cycles from the start pulse to halt *)
  halted : bool;
}

val run_structural :
  ?mem_bits:int ->
  ?max_cycles:int ->
  ?collect_trace:bool ->
  int list ->
  result
(** Whole system at gate level, including a 2{^mem_bits}-word structural
    RAM (default 6); the program is DMA-loaded at address 0. *)

val run_behavioural :
  ?mem_words:int ->
  ?max_cycles:int ->
  ?collect_trace:bool ->
  int list ->
  result
(** Gate-level core with an OCaml-array memory on the exposed bus: the
    documented substitution for a full 64K-word gate-level RAM. *)

val final_registers : result -> int array
(** Register contents reconstructed from the event log. *)

val final_memory : size:int -> result -> program:int list -> int array
(** Memory contents reconstructed by replaying the writes over the loaded
    program. *)

val trace_fmt : trace_entry -> string

(** {1 Multi-program mode} *)

val system_netlist : ?mem_bits:int -> unit -> Hydra_netlist.Netlist.t
(** The whole gate-level system (structural RAM of 2{^mem_bits} words,
    default 6) extracted as a netlist: inputs [start], [dma],
    [da0..da15], [dd0..dd15]; outputs [halted] and [pc0..pc15]. *)

val program_stimulus :
  ?mem_bits:int ->
  ?max_cycles:int ->
  int list ->
  (string * bool list) list * int
(** The {!run_structural} input schedule for one program, rendered as
    per-port bool streams over {!system_netlist}'s input ports (plus the
    total cycle count) — the stimulus format of cycle-driven consumers
    like [Hydra_verify.Campaign]: DMA load at addresses 0.., a start
    pulse at t = program length, then free running for [max_cycles]
    (default 2000) further cycles.  On a fault-free lane, [halted] first
    asserts at cycle [r.cycles + length program] where [r] is
    {!run_structural}'s result. *)

type batch_result = {
  halted : bool;
  cycles : int;  (** clock cycles from the start pulse to halt *)
  pc : int;  (** program counter at the halt cycle (0 if never halted) *)
}

val run_many :
  ?mem_bits:int ->
  ?max_cycles:int ->
  ?sharded:Hydra_engine.Sharded.t ->
  ?domains:int ->
  int list array ->
  batch_result array
(** Run many machine-language programs at once on {!system_netlist},
    one program per lane of a 62-lane k = 1 replica, one stream per
    domain (at most ceil(N/62) streams).  Each lane keeps its own clock
    and is driven with exactly the DMA-load / start-pulse schedule
    {!run_structural} would generate for its program; when the program
    halts or has run [max_cycles] cycles past its load, the lane is
    reset and takes the next unclaimed program, so N programs cost about
    their total cycle count / 62 settle passes instead of waiting on the
    slowest program of a batch.  Lanes never interact, so results do not
    depend on lane placement, program order or domain count.
    [?sharded] reuses an engine already created from [system_netlist
    ~mem_bits] (and is not shut down) — it must be a k = 1 engine
    ([Sharded.create], or [Sharded.of_base] of a k = 1 slab:
    [Slab.create ~k:1], or [Slab.of_program] of a program compiled with
    [~k:1] and any flags; the workload benchmark still passes the
    equivalent [Compiled_wide.of_program], which remains only for it),
    otherwise
    [Invalid_argument]; without it one is created with [?domains] and
    shut down on return.  Either way the streams are one
    {!Hydra_engine.Sharded.dispatch} job on the engine's scheduler.
    [cycles] and [halted] of result [k] match {!run_structural} on
    program [k]. *)
