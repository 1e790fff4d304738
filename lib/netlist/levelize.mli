(** Levelization: rank every component by the number of gate delays after
    a clock tick at which its output is valid.  Flip-flop inputs do not
    constrain the flip flop (the synchronous model breaks loops at
    registers), so purely combinational cycles — which the model forbids —
    are detected and reported.  Every [t] is built by {!of_levels}, so
    ranks and the critical path have one definition whichever algorithm
    found the levels. *)

type t = {
  levels : int array;  (** per component; -1 inside a combinational cycle *)
  by_level : int array array;
      (** combinational components grouped by rank, each rank in
          ascending index order; every rank's members are mutually
          independent, which is what the parallel engines exploit, and
          running the ranks in ascending order is a topological
          evaluation order *)
  critical_path : int;
      (** deepest signal that must settle before the next tick (at an
          output port or a dff input) *)
  cyclic : int list;
      (** components on combinational cycles, sorted ascending
          (deterministic) *)
}

exception Combinational_cycle of int list

val of_levels : Netlist.t -> int array -> cyclic:int list -> t
(** The levelization with these per-component levels: [by_level] buckets
    every non-source of level [>= 0] by level, in ascending index order,
    and [critical_path] is the deepest driver of an outport or a dff.
    The level array is not copied.  [cyclic] is stored as given. *)

val compute : Netlist.t -> t
(** A fresh levelization, not memoized: to time the algorithm itself, or
    where the result must not be shared with other readers.  Raises
    [Invalid_argument] (from {!Netlist.fanout}) on an out-of-range fanin
    index. *)

val of_netlist : Netlist.t -> t
(** {!compute}, memoized per physical netlist value: a second call on the
    same value returns the same [t] ([==]) without levelizing again,
    unless a netlist with a colliding hash was levelized in between (a
    copy of the same circuit always collides), and the memo lives no
    longer than the netlist.  Safe to call from several domains at once.
    The netlist must not be mutated once it has been published (handed
    to any reader), and the result's arrays are shared and must not be
    mutated either.  A copy of the record, even one with equal fields,
    is a different key. *)

val cycle_witness : Netlist.t -> t -> int list option
(** A concrete directed combinational cycle, when {!cyclic} is non-empty:
    an ordered component path in driver -> sink order (each element
    drives the next; the last drives the first), deterministic, rotated
    to start at its smallest member. *)

val describe_cycle : Netlist.t -> int list -> string
(** Render a witness path with component names:
    ["and2#3(q) -> inv#4 -> and2#3(q)"]. *)

val check : Netlist.t -> t
(** As {!of_netlist}, but raises {!Combinational_cycle} when the netlist
    has one. *)

val critical_path : Netlist.t -> int
(** [(of_netlist nl).critical_path]. *)

val relevel : Netlist.t -> t -> seeds:int list -> t * bool array
(** [relevel nl old ~seeds] levelizes [nl], where [old] levelizes an
    acyclic netlist that [nl] differs from only at the components
    [seeds]; only what the edit can reach is re-levelled.  Returns the
    result, equal to [compute nl] field for field, and a per-component
    flag, set on every component whose level the re-levelling moved.
    Raises {!Combinational_cycle} (with [compute nl]'s [cyclic]) when
    the edit closed a combinational cycle. *)
