(* Memory re-layout: permute component indices into a rank-major,
   fanout-clustered order.

   The levelized compiled engines walk the netlist rank by rank and, inside
   a rank, one flat loop per gate kind; extraction order (post-order over
   the circuit graph) scatters the members of a rank all over the value
   array, so those loops read and write with large strides.  This pass
   renumbers components so the traversal the engine actually performs is
   the memory order:

   - level 0 first: declared inports (in port-list order), then constants,
     then all dffs contiguously — the dff block is what the latch phase
     walks every cycle;
   - then each levelized rank in ascending order, its members grouped by
     gate kind in the engines' kernel order (inv, and, or, xor, outports)
     so each per-kind destination array becomes one ascending contiguous
     range;
   - within a kind, members sorted by their (already renumbered) source
     indices, so gates reading the same or neighbouring drivers — high
     fanout nets — sit next to each other and their reads hit the same
     cache lines.

   The result is behaviourally identical (it is a pure index permutation;
   the equivalence suite checks it), but the compiled engines' inner loops
   become near-sequential sweeps of the value array.

   A rank is sorted by (kind, s0, s1, index), -1 standing for a missing
   source, on two int keys per component computed once per rank:
   [major = kind * (n+1) + s0 + 1] and [minor = s1], the index breaking
   ties — no tuple per comparison. *)

let kind_order (c : Netlist.component) =
  match c with
  | Netlist.Invc -> 0
  | Netlist.And2c -> 1
  | Netlist.Or2c -> 2
  | Netlist.Xor2c -> 3
  | Netlist.Outport _ -> 4
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> 5

(* [rank_major_permutation nl] is the re-laid-out netlist together with
   the permutation it applied: [new_of_old.(i)] is the new index of old
   component [i].  Netlists with combinational cycles are returned
   unchanged (identity permutation), so a [Levelize.check] of the result
   reports the cycle against the original indices. *)
let rank_major_permutation (nl : Netlist.t) =
  let n = Netlist.size nl in
  let identity () = Array.init n (fun i -> i) in
  let lv = Levelize.of_netlist nl in
  if lv.Levelize.cyclic <> [] then (nl, identity ())
  else begin
    let new_of_old = Array.make n (-1) in
    let next = ref 0 in
    let assign i =
      new_of_old.(i) <- !next;
      incr next
    in
    (* level 0: inports in declaration order, then constants, then the
       dff block *)
    let assign_all pick =
      Array.iteri (fun i c -> if pick c then assign i) nl.Netlist.components
    in
    List.iter (fun (_, i) -> assign i) nl.Netlist.inputs;
    assign_all (function Netlist.Constant _ -> true | _ -> false);
    assign_all (function Netlist.Dffc _ -> true | _ -> false);
    (* combinational ranks, kind-grouped and source-clustered.  Sources of
       a rank's members live at strictly lower ranks, so their new indices
       are already assigned when the rank's keys are computed. *)
    let major = Array.make n 0 and minor = Array.make n 0 in
    let src fi k = if Array.length fi > k then new_of_old.(fi.(k)) else -1 in
    let cmp a b =
      let c = Int.compare major.(a) major.(b) in
      if c <> 0 then c
      else
        let c = Int.compare minor.(a) minor.(b) in
        if c <> 0 then c else Int.compare a b
    in
    Array.iter
      (fun rank ->
        Array.iter
          (fun i ->
            let fi = nl.Netlist.fanin.(i) in
            major.(i) <-
              (kind_order nl.Netlist.components.(i) * (n + 1)) + src fi 0 + 1;
            minor.(i) <- src fi 1)
          rank;
        let sorted = Array.copy rank in
        Array.stable_sort cmp sorted;
        Array.iter assign sorted)
      lv.Levelize.by_level;
    assert (!next = n);
    let components = Array.make n (Netlist.Constant false) in
    let fanin = Array.make n [||] in
    let names = Array.make n [] in
    for i = 0 to n - 1 do
      let j = new_of_old.(i) in
      components.(j) <- nl.Netlist.components.(i);
      names.(j) <- nl.Netlist.names.(i);
      fanin.(j) <- Array.map (fun s -> new_of_old.(s)) nl.Netlist.fanin.(i)
    done;
    ( {
        Netlist.components;
        fanin;
        names;
        inputs = List.map (fun (s, i) -> (s, new_of_old.(i))) nl.Netlist.inputs;
        outputs =
          List.map (fun (s, i) -> (s, new_of_old.(i))) nl.Netlist.outputs;
      },
      new_of_old )
  end

let rank_major nl = fst (rank_major_permutation nl)
