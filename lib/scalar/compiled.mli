(** Levelized compiled netlist simulator: the netlist flattened into
    integer arrays, one cycle = set inputs, {!settle}, read outputs,
    {!tick}.  The fast sequential baseline engine (experiment E12). *)

type t

val create : ?optimize:bool -> Hydra_netlist.Netlist.t -> t
(** Raises {!Hydra_netlist.Levelize.Combinational_cycle} on an invalid
    circuit.  [~optimize:true] (default false) runs the
    {!Hydra_netlist.Optimize} pre-pass before compilation — identical
    port-level behaviour, fewer components per cycle. *)

val reset : t -> unit
(** Restore power-up values. *)

val set_input : t -> string -> bool -> unit
val settle : t -> unit
(** Evaluate the combinational logic for the current cycle. *)

val tick : t -> unit
(** Latch every dff from its (settled) input and advance the clock. *)

val step : t -> unit
(** [settle] then [tick]. *)

val output : t -> string -> bool
val outputs : t -> (string * bool) list
val cycle : t -> int
val critical_path : t -> int
val levels : t -> Hydra_netlist.Levelize.t

val run :
  t -> inputs:(string * bool list) list -> cycles:int -> (string * bool) list list
(** Whole simulation: per-input value streams (padded with [false]);
    returns one output row per cycle. *)

type snapshot

val save : t -> snapshot
(** Checkpoint the full simulation state. *)

val restore : t -> snapshot -> unit
(** Return to a checkpoint of the same circuit. *)

(** {1 Internals exposed for the parallel engines and the engine laws} *)

val eval_component : t -> int -> unit
val dff_indices : t -> int array
val latch_one : t -> int -> unit
val commit_one : t -> int -> unit
val bump_cycle : t -> unit
val peek : t -> int -> bool
val poke : t -> int -> bool -> unit
