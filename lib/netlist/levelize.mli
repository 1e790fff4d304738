(** Levelization: rank every component by the number of gate delays after
    a clock tick at which its output is valid.  Flip-flop inputs do not
    constrain the flip flop (the synchronous model breaks loops at
    registers), so purely combinational cycles — which the model forbids —
    are detected and reported. *)

type t = {
  levels : int array;  (** per component; -1 inside a combinational cycle *)
  order : int array;  (** combinational evaluation order (topological) *)
  by_level : int array array;
      (** combinational components grouped by rank; every rank's members
          are mutually independent, which is what the parallel engines
          exploit *)
  critical_path : int;
      (** deepest signal that must settle before the next tick (at an
          output port or a dff input) *)
  cyclic : int list;
      (** components on combinational cycles, sorted ascending
          (deterministic) *)
}

exception Combinational_cycle of int list

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
