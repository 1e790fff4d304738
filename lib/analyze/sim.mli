(** Reference netlist evaluators for the analyses: a ternary (0/1/X)
    abstract evaluator for the lint rules, and a deliberately simple
    packed 62-lane concrete simulator that {!Certify} uses as the
    independent oracle when validating transforms — it shares no code
    with the compiled engines, so a bug in their optimizer or re-layout
    passes cannot hide in the checker. *)

val ternary_gate :
  Hydra_netlist.Netlist.component ->
  (int -> Hydra_core.Ternary.t) ->
  Hydra_core.Ternary.t option
(** The one ternary abstract transfer function, shared by
    {!ternary_values} and every forward {!Dataflow} domain.  Evaluates a
    combinational component (gate or outport) over Kleene logic, reading
    fanin slot [k]'s value through the callback; [None] for components
    that are not combinational functions of their fanin (inports,
    constants, flip flops) — their values are boundary conditions of the
    calling analysis. *)

val ternary_values :
  ?inputs:Hydra_core.Ternary.t ->
  ?respect_init:bool ->
  ?cycles:int ->
  Hydra_netlist.Netlist.t ->
  Hydra_core.Ternary.t array
(** Settled per-component values after [cycles] clock ticks (default 0:
    the first settle), every input port held at [inputs] (default X) and
    flip flops powered up at X unless [respect_init] (default false).
    Components on combinational cycles read X. *)

type packed

val packed_create : Hydra_netlist.Netlist.t -> packed
(** Raises {!Hydra_netlist.Levelize.Combinational_cycle} on an invalid
    circuit. *)

val packed_reset : packed -> unit
val packed_set_input : packed -> string -> int -> unit
val packed_settle : packed -> unit
val packed_tick : packed -> unit
val packed_output : packed -> string -> int
val packed_outputs : packed -> (string * int) list

val packed_value : packed -> int -> int
(** Settled word of component [i] (any component, not just a port) —
    {!Dataflow.crosscheck} compares per-component analysis verdicts
    against simulated lane words. *)

val packed_poke : packed -> int -> int -> unit
(** [packed_poke t i w] overwrites component [i]'s word (masked to 62
    lanes): a flip flop's held state, an input's driven word; a gate or
    constant is recomputed by the next {!packed_settle}. *)
