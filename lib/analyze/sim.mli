(** Reference netlist evaluators for the analyses: a stepping ternary
    (0/1/X) simulator for power-up analysis and the lint rules, and a
    deliberately simple packed 62-lane concrete simulator that
    {!Certify} uses as the independent oracle when validating
    transforms — it shares no code with the compiled engines, so a bug
    in their optimizer or re-layout passes cannot hide in the checker.
    [Bmc] and [Fault.response] run on it too, on lane 0. *)

val ternary_gate :
  Hydra_netlist.Netlist.component ->
  (int -> Hydra_core.Ternary.t) ->
  Hydra_core.Ternary.t option
(** The one ternary abstract transfer function, shared by the
    {!ternary} simulator and every forward {!Dataflow} domain.  Evaluates
    a combinational component (gate or outport) over Kleene logic,
    reading fanin slot [k]'s value through the callback; [None] for
    components that are not combinational functions of their fanin
    (inports, constants, flip flops) — their values are boundary
    conditions of the calling analysis. *)

type ternary
(** A stepping ternary simulator for power-up and reset analysis: flip
    flops start unknown, so an output that reads 0/1 is provably
    independent of the power-up state, and a dff that becomes known has
    been initialized by the reset sequence.  Components on combinational
    cycles read X. *)

val ternary_create : ?respect_init:bool -> Hydra_netlist.Netlist.t -> ternary
(** Every input and flip flop starts at X; with [respect_init] (default
    false) flip flops power up to their declared values instead. *)

val ternary_set_input : ternary -> string -> Hydra_core.Ternary.t -> unit

val ternary_step : ternary -> unit
(** Settle the cycle and latch: ternary values propagate into state. *)

val ternary_output : ternary -> string -> Hydra_core.Ternary.t
(** Settled value of an output port under the current inputs. *)

val ternary_value : ternary -> int -> Hydra_core.Ternary.t
(** Settled value of component [i] (any component, not just a port). *)

val ternary_unknown_dffs : ternary -> int
(** How many flip flops are still X. *)

val ternary_values :
  ?inputs:Hydra_core.Ternary.t ->
  ?respect_init:bool ->
  ?cycles:int ->
  Hydra_netlist.Netlist.t ->
  Hydra_core.Ternary.t array
(** Settled per-component values after [cycles] clock ticks (default 0:
    the first settle) of a {!ternary} simulator with every input port
    held at [inputs] (default X). *)

type packed

val packed_create : Hydra_netlist.Netlist.t -> packed
(** Raises {!Hydra_netlist.Levelize.Combinational_cycle} on an invalid
    circuit. *)

val packed_reset : packed -> unit
val packed_set_input : packed -> string -> int -> unit
val packed_settle : packed -> unit
val packed_tick : packed -> unit
val packed_output : packed -> string -> int

val packed_value : packed -> int -> int
(** Settled word of component [i] (any component, not just a port) —
    {!Dataflow.crosscheck} compares per-component analysis verdicts
    against simulated lane words. *)

val packed_poke : packed -> int -> int -> unit
(** [packed_poke t i w] overwrites component [i]'s word (masked to 62
    lanes): a flip flop's held state, an input's driven word; a gate or
    constant is recomputed by the next {!packed_settle}. *)
