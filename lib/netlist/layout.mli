(** Rank-major, fanout-clustered memory re-layout.

    Permutes component indices so the levelized engines' traversal order
    is the memory order: level 0 (inports, constants, then a contiguous
    dff block) followed by each rank with its members grouped by gate
    kind and sorted by source index, the old index breaking ties, so the
    result does not depend on the order a rank lists its members in.
    Pure index permutation — behaviour is unchanged; the per-kind kernel
    loops of {!Hydra_engine} (wide engine) become near-sequential sweeps
    of the value array.  The ranks come from the memoized
    {!Levelize.of_netlist}, so a caller that levelized the same netlist
    value first pays no second levelization, and the laid-out netlist's
    levels are the input's carried through the permutation. *)

val rank_major : Netlist.t -> Netlist.t
(** The re-laid-out netlist.  Netlists with combinational cycles are
    returned unchanged, so cycle reporting still refers to the caller's
    indices. *)

val rank_major_permutation : Netlist.t -> Netlist.t * int array
(** As {!rank_major}, also returning [new_of_old]: element [i] is the new
    index of old component [i] (the identity for cyclic netlists). *)
