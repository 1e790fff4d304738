(** Bounded model checking and reachability over netlist state machines —
    the whole circuit viewed as one synchronous state machine whose state
    vector is the flip-flop contents (paper section 3), explored on the
    packed reference simulator ({!Hydra_analyze.Sim}). *)

type violation = {
  depth : int;
  inputs : bool list list;  (** input rows leading to the violation *)
  outputs : (string * bool) list;
}

type result = Holds | Violated of violation

val check :
  ?max_states:int ->
  ?invariants:(int * bool) list ->
  property:string ->
  depth:int ->
  Hydra_netlist.Netlist.t ->
  result
(** Drive every input sequence up to [depth] cycles (breadth-first over
    deduplicated states, so violations are found at minimal depth) and
    fail if the output named [property] is ever 0 after settling.
    Exponential in the number of inputs.  An unknown [property] or a
    negative [depth] raises [Invalid_argument]; more than [max_states]
    expansions raise [Failure].

    [invariants] assumes flip flops (by component index) stuck at a
    value — use [Hydra_analyze.Dataflow.stuck_registers] — shrinking
    the snapshot key space.  Each pinned dff must power up at the
    claimed value ([Invalid_argument] otherwise) and is tripwired at
    every snapshot: if simulation ever catches one off its pinned
    value, the search aborts with [Failure] instead of exploring
    unsoundly. *)

val reachable_states :
  ?limit:int ->
  ?invariants:(int * bool) list ->
  Hydra_netlist.Netlist.t ->
  int * bool
(** Reachable flip-flop states from power-up under all inputs; the flag
    reports truncation at [limit].  [invariants] as in {!check}: pinned
    dffs drop out of the state key, so the count ranges over the
    non-constant state bits only. *)

val equiv_sequential :
  ?max_states:int ->
  depth:int ->
  Hydra_netlist.Netlist.t ->
  Hydra_netlist.Netlist.t ->
  result
(** Two netlists with the same input and output port names produce
    identical outputs on every input sequence of length [depth].
    Different port names or a negative [depth] raise [Invalid_argument];
    more than [max_states] expansions raise [Failure]. *)
