(** The 62-lane "wide" engine: a {!Slab} with one word per signal.

    Only a name for the k = 1 configuration; everything else about the engine (forces, replicas, packed runs) is
    {!Slab}'s, applied to the same value.  No library code uses it: it
    remains only because the workload benchmark ([bench/workloads/])
    still names it, and goes once that benchmark moves to
    [Slab.create ~k:1] / [Slab.of_program]. *)

type t = Slab.t

val lanes : int
(** 62, see {!Hydra_core.Packed.lanes}. *)

val create : Hydra_netlist.Netlist.t -> t
(** [Slab.create ~k:1]: the default compile flags.  For others, use
    {!of_program}. *)

val of_program : Kernel.program -> t
(** {!Slab.of_program} on a program compiled with [k = 1]; raises
    [Invalid_argument] otherwise. *)

val reset : t -> unit
val set_input : t -> string -> int -> unit
val settle : t -> unit
val tick : t -> unit
val step : t -> unit
val output : t -> string -> int
