(** Flat netlists extracted from the graph semantics (paper section 4.4):
    the fabrication interface — components plus the connections between
    their ports. *)

type component =
  | Inport of string
  | Outport of string
  | Constant of bool
  | Invc
  | And2c
  | Or2c
  | Xor2c
  | Dffc of bool  (** carries the power-up value *)

type t = {
  components : component array;
  fanin : int array array;
      (** [fanin.(c)] lists the component driving each input port of [c],
          in port order *)
  names : string list array;
      (** labels attached via {!Hydra_core.Graph.label} *)
  inputs : (string * int) list;  (** port name, component index *)
  outputs : (string * int) list;
}

val component_name : component -> string

val input_arity : component -> int
(** Number of input ports (the output port's index, in the paper's
    numbering). *)

val extract : inputs:Hydra_core.Graph.t list -> outputs:(string * Hydra_core.Graph.t) list -> t
(** Extract the netlist reachable from [outputs], declaring [inputs]
    explicitly so that unused input ports still appear.  Components are
    numbered children-first (the paper's order); circular graphs from
    feedback are handled. *)

val of_graph : outputs:(string * Hydra_core.Graph.t) list -> t
(** [extract ~inputs:[]]. *)

val validate : t -> (unit, string) result
(** Structural well-formedness: fanin arity matches {!input_arity}, every
    fanin index is in bounds and not an outport, and the input/output
    port lists refer to [Inport]/[Outport] components with the same name.
    The engines index arrays with these numbers unchecked, so corrupt
    netlists must fail here with a message, not later out of bounds. *)

val describe : t -> int -> string
(** Human label for diagnostics: ["and2#5(carry)"] — kind, index, and
    attached labels when present. *)

type stats = {
  gates : int;
  dffs : int;
  inports : int;
  outports : int;
  constants : int;
  total : int;
}

val stats : t -> stats
val size : t -> int

type fanout = { off : int array; sink : int array; port : int array }
(** The driver-to-sink edges in compressed sparse rows: driver [d]
    drives input port [port.(e)] of component [sink.(e)] for every
    [off.(d) <= e < off.(d + 1)], in ascending (sink, port) order.
    [off] has [size t + 1] entries. *)

val fanout : t -> fanout
(** Raises [Invalid_argument], naming the component, the port and the
    driver index, when a fanin index is negative or out of range. *)

val fanout_degree : fanout -> int -> int
(** Number of (sink, port) edges the component drives. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo f] is [f] memoized per physical netlist value, in 64
    direct-mapped slots keyed by [Hashtbl.hash]: a second call on the
    same value returns the same result without calling [f] again, unless
    a netlist with a colliding hash was seen in between (a copy of the
    same circuit always collides), and an entry lives no longer than its
    netlist.  Safe to call from several domains at once.  A netlist must
    not be mutated once published, and the shared results must not be
    mutated either. *)

val digest : t -> string
(** Stable content hash (hex) of the observable circuit: components are
    renumbered canonically by a fanin-order traversal rooted at the
    name-sorted output then input ports, so the digest is invariant
    under component renumberings ({!Layout.rank_major}) and under
    {!Serial} round-trips, while distinct circuits get distinct digests
    (modulo hash collisions).  Components unreachable from any port
    contribute per-kind counts only.  Used as the {!Hydra_engine.Cache}
    key, which additionally verifies structural equality on hits — so a
    collision can cost a duplicate cache entry, never a wrong program. *)
