(* Multi-word slab simulator: K consecutive 62-lane words per signal in
   one flat int array.  This is the only word-parallel runtime; the
   62-lane "wide" engine is its k = 1 instance ({!Compiled_wide}).

   One tagged int carries 62 lanes; here signal [i] owns words
   [i*k .. i*k + k - 1] of the slab, and every kernel loop runs its gate
   over the whole K-word run before moving on — 62*K lanes per settle
   pass, with the per-gate dst/src index loads (the bottleneck at
   k = 1) amortized K ways and the K value words streaming from
   consecutive addresses.  The compile pipeline is {!Kernel}; the only
   addition here is pre-scaling every index by [k] so the hot loops
   never multiply.

   Every block, gated or not, runs through one kernel, the C stub in
   [kernel_stubs.c], from a flat per-block descriptor built (and
   bounds-checked) at create time.  The stub specialises k = 1 and uses
   AVX2/NEON vector loads when the build enabled them (tagged ints
   vectorize directly: and/or preserve the tag, xor re-ors it, inv
   masks against [lane_mask lsl 1]); its detecting entry point also
   returns the gates whose words changed, so no gate-evaluation loop
   is OCaml.

   The units of both iteration and gating are the compile-time rank
   {e blocks} of {!Kernel.program}: every levelized rank is tiled into
   blocks of at most {!Kernel.gates_per_block} gates ({!Kernel.tuning},
   sized so one block's K-word value traffic fits L1/L2), and each
   block runs all its per-kind loops before the sweep moves on — a
   k = 16 slab re-walks a cache-hot tile instead of streaming the whole
   rank once per gate kind.

   Activity gating ([~gating:true]) adds a per-block dirty bitset (int
   words, 32 blocks per word) over {!Kernel.consumer_blocks}, plus a
   per-dff-cluster dirty bitset over {!Kernel.dff_sink_clusters} for
   the latch phase:

   - every mutation (input writes, pokes, force application, the dff
     latch phase) compares the new word against the old and, on any
     difference, marks the blocks that read the component and the dff
     clusters that latch it;
   - [settle] skips blocks whose bit is clear and, inside a running
     block, change-detects each gate's K-word result to mark *its*
     readers — consumer blocks always sit at strictly higher ranks, so
     one ascending sweep propagates exactly the active cone;
   - [tick] latches only dirty dff clusters (two staged passes, so dff
     chains crossing clusters still see pre-tick values);
   - a settled quiescent engine costs one scan of the bitset words per
     cycle — an idle CPU pays for its state nothing at all.

   Change detection costs an extra load and xor per word plus a
   consumer-marking pass per changed gate — nearly 2x on a circuit
   whose every block toggles every cycle.  Gating is therefore
   adaptive per block: a block whose gates changed on
   [tuning.hot_after] consecutive detected runs flips to a {e hot}
   mode that runs the plain ungated kernels and conservatively marks
   the union of its consumer blocks (and dff sink clusters),
   re-probing with detection every [tuning.probe_period] runs.  A hot
   block that stops being marked dirty simply stops running, so
   quiescence still propagates instantly; the probe only exists to
   catch blocks whose inputs keep toggling while their outputs have
   stabilized.  High-toggle circuits thus pay only the bitset scan and
   the rare probe (a few percent), while idle workloads keep the full
   skip — at block, not rank, granularity, so the active cone of a
   mostly-idle wide rank re-runs only its own tiles.

   Hot blocks still pay the bitset walk, and detecting blocks the
   per-word change detection, on cycles where nothing can be skipped — a
   CPU running a program under hundreds of SEU lanes dirties nearly
   every block every cycle.  So a gated settle that ran at least 7/8 of
   the blocks makes the engine {e dense} for the next
   [tuning.probe_period] settles: each runs the ungated sweep, then
   clears every block bit and marks every dff cluster, and [tick]
   latches ungated while more dense settles remain.  The tick before
   the next gated settle is the gated one, so that settle starts from
   exact roots (changed dffs plus writes) and measures again.  The
   settle after [fresh]/[reset] does not count: its bitset is full by
   construction.

   Forces compose with gating: [settle] applies force masks at the
   usual rank-boundary slots with change detection, marking the forced
   site's consumer blocks and dff sink clusters exactly like any other
   mutation, and [set_forces]/[clear_forces] re-mark each affected
   site's own block so a cleared force is recomputed to its natural
   value on the next settle.  Campaigns therefore run gated or
   ungated.

   A cone settle ([settle_cone]) runs the stub over per-rank descriptors
   of just a fanout-closed component set, built per instance in a
   reused scratch, after writing a golden trace's bits to the set's
   frontier: the fault campaign's way to settle only what its faults
   can reach.  Gating cannot do this — a wallace64 chunk's cone is ~4%
   of the gates but spread over half the blocks. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module Packed = Hydra_core.Packed

let lanes_per_word = Packed.lanes
let lane_mask = Packed.lane_mask

type force = {
  f_site : int;
  force0 : int array;
  force1 : int array;
  flip : int array;
}

(* The driver-to-reader graph of a program's netlist, dff inputs
   included, for fanout closures (see [build_fanout]).  Kept off the
   OCaml heap as 32-bit entries: it lives as long as the engine's
   program, and on the heap its size would be paid again in the GC's
   headroom.  [wide] marks components whose closure alone was found
   past the cone bound, so a later closure holding one fails without
   a walk; replicas set bytes concurrently, only ever from 0 to 1. *)
type index = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type fanout = { rd_off : index; rd : index; wide : Bytes.t }

(* Per-instance cone scratch, built on first use, which also holds the
   instance's current cone: component marks and per (rank, gate kind)
   counts, both all clear between builds; a work queue; per rank a
   descriptor buffer (grown on demand — the stub reads only as many
   tuples as the header counts) and whether the cone has gates there;
   the frontier; the member bitset; and a generation that retires the
   previous cone. *)
type scratch = {
  s_mark : Bytes.t;
  s_slots : int array;
  mutable s_queue : int array;
  s_desc : int array array;
  s_live : Bytes.t;
  mutable s_front : int array;
  mutable s_nfront : int;
  s_set : int array;
  mutable s_gen : int;
}

type t = {
  prog : Kernel.program;
  k : int;
  gating : bool;
  fanout : fanout option Atomic.t;
      (* built on the first [fanout_cone], shared by replicas *)
  mutable scratch : scratch option;
      (* this instance's cone scratch and current cone, built on first
         use *)
  simd_desc : int array array;
      (* per block: the flat descriptor the C stub runs *)
  consts_s : (int * int) array;  (* scaled base index, broadcast word *)
  dffs_s : int array;  (* scaled dff bases *)
  dff_src_s : int array;  (* scaled driver bases *)
  dff_init_w : int array;  (* broadcast power-up words *)
  consumers : int array array;
      (* per (unscaled) component: blocks whose kernels read it *)
  dff_sinks : int array array;
      (* per (unscaled) component: dff clusters whose latch reads it *)
  comp_owner : int array;
      (* per (unscaled) component: block whose kernel stores it, or -1 *)
  dff_of_comp : int array;
      (* per (unscaled) component: its index into [prog.dffs], or -1 *)
  block_consumers : (int array * int array) array;
      (* per block: union of its gates' consumer blocks (hot marking),
         as a sparse (bitset word, OR mask) pair list *)
  block_dff_sinks : (int array * int array) array;
      (* per block: union of its gates' dff sink clusters (hot marking) *)
  cluster_consumers : (int array * int array) array;
      (* per dff cluster: union of its dffs' consumer blocks — the
         gated tick marks once per changed cluster, not per dff *)
  cluster_sinks : (int array * int array) array;
      (* per dff cluster: union of its dffs' own dff sink clusters
         (dff-to-dff chains) *)
  values : int array;  (* the slab: size * k + pad *)
  dff_next : int array;  (* ndffs * k + pad *)
  block_dirty : int array;
      (* bitset, 32 blocks per int; only read when gating *)
  dff_dirty : int array;
      (* bitset over dff clusters; only read when gating *)
  cluster_scratch : int array;
      (* tick's snapshot of dirty clusters, length n_dff_clusters *)
  changed : int array;
      (* gated engines: the detecting stub's changed-gate buffer, as long
         as the largest block's non-outport gate count; empty otherwise *)
  block_mode : int array;
      (* 0 = detecting; n > 0 = hot for n more runs before a probe *)
  block_streak : int array;
      (* consecutive changed runs while detecting; at
         [tuning.hot_after], go hot for [tuning.probe_period] runs *)
  mutable cycle : int;
  mutable force_slots : force array array;
  mutable last_marked : int;
      (* last component [write_word] marked, or -1; consecutive writes
         to the k words of one component mark its consumers once.
         Invalidated wherever dirty bits are consumed (settle, tick). *)
  mutable dense : int;
      (* gated engines: settles left to run as the ungated sweep *)
  mutable unmeasured : bool;
      (* the next gated settle follows [fresh]/[reset]: its full bitset
         says nothing about activity, so it never enters dense mode *)
}

let k t = t.k
let words t = t.k
let program t = t.prog
let lanes t = lanes_per_word * t.k
let gated t = t.gating
let dense_next t = t.dense > 0

(* --- int-word bitsets: 32 bits per word so the shift/mask never meets
   OCaml's 63-bit int edge, [i lsr 5] / [i land 31] indexing --- *)

let bitset_make n = Array.make ((n + 31) lsr 5) 0

(* Set every valid bit, leaving the excess bits of the last word clear so
   a zero-scan of a fully-settled engine really sees all zeros. *)
let bitset_fill b n =
  let full = n lsr 5 in
  Array.fill b 0 full (-1 land 0xFFFFFFFF);
  let rest = n land 31 in
  if rest > 0 then b.(full) <- (1 lsl rest) - 1

let bit_test b i = b.(i lsr 5) land (1 lsl (i land 31)) <> 0

let bit_clear b i =
  let w = i lsr 5 in
  b.(w) <- b.(w) land lnot (1 lsl (i land 31))

let mark_bit b i =
  let w = i lsr 5 in
  b.(w) <- b.(w) lor (1 lsl (i land 31))

let mark_bits b idxs =
  for x = 0 to Array.length idxs - 1 do
    let i = Array.unsafe_get idxs x in
    let w = i lsr 5 in
    Array.unsafe_set b w (Array.unsafe_get b w lor (1 lsl (i land 31)))
  done

(* A precomputed union of dirty-bit targets, stored as (bitset word
   index, OR mask) pairs so marking the whole union is a handful of
   word ORs instead of a walk over every member index. *)
let mask_of_union idxs =
  let words = ref [] and masks = ref [] in
  Array.iter
    (fun i ->
      let w = i lsr 5 and m = 1 lsl (i land 31) in
      match !words with
      | w' :: _ when w' = w -> masks := (List.hd !masks lor m) :: List.tl !masks
      | _ ->
          words := w :: !words;
          masks := m :: !masks)
    idxs;
  (Array.of_list (List.rev !words), Array.of_list (List.rev !masks))

let or_mask b (idx, msk) =
  for x = 0 to Array.length idx - 1 do
    let w = Array.unsafe_get idx x in
    Array.unsafe_set b w (Array.unsafe_get b w lor Array.unsafe_get msk x)
  done

let any_bit b =
  let n = Array.length b in
  let rec go i = i < n && (Array.unsafe_get b i <> 0 || go (i + 1)) in
  go 0

let apply_initial t =
  let values = t.values and km1 = t.k - 1 in
  Array.iter
    (fun (base, w) ->
      for x = base to base + km1 do
        Array.unsafe_set values x w
      done)
    t.consts_s;
  Array.iteri
    (fun j base ->
      let w = t.dff_init_w.(j) in
      for x = base to base + km1 do
        Array.unsafe_set values x w
      done)
    t.dffs_s

(* Cache-line slack at the end of the hot arrays (see [fresh]). *)
let pad = 8

(* Per block, the sorted union of its gates' consumer blocks (resp. dff
   sink clusters): what a hot block marks after an undetected run. *)
let block_union universe (prog : Kernel.program) per_comp =
  Array.map
    (fun (kn : Kernel.kernel) ->
      let seen = Array.make (max 1 universe) false in
      let add comp = Array.iter (fun b -> seen.(b) <- true) per_comp.(comp) in
      Array.iter add kn.inv_dst;
      Array.iter add kn.and_dst;
      Array.iter add kn.or_dst;
      Array.iter add kn.xor_dst;
      Array.iter add kn.andor_dst;
      Array.iter add kn.orand_dst;
      Array.iter add kn.xor3_dst;
      let out = ref [] in
      for b = universe - 1 downto 0 do
        if seen.(b) then out := b :: !out
      done;
      Array.of_list !out)
    prog.Kernel.blocks

(* Per dff cluster, the sorted union of its dffs' [per_comp] entries:
   one mark per changed cluster keeps the gated tick's bookkeeping off
   the per-dff fast path. *)
let cluster_union universe (prog : Kernel.program) per_comp =
  let dffs = prog.Kernel.dffs in
  let n = Array.length dffs in
  let cpd = prog.Kernel.dffs_per_cluster in
  Array.init prog.Kernel.n_dff_clusters (fun cl ->
      let seen = Array.make (max 1 universe) false in
      let hi = min n ((cl + 1) * cpd) - 1 in
      for j = cl * cpd to hi do
        Array.iter (fun b -> seen.(b) <- true) per_comp.(dffs.(j))
      done;
      let out = ref [] in
      for b = universe - 1 downto 0 do
        if seen.(b) then out := b :: !out
      done;
      Array.of_list !out)

(* A block's gate kinds in C stub order: name, destination
   indices, source index arrays. *)
let kinds (kn : Kernel.kernel) =
  [|
    ("inv", kn.inv_dst, [| kn.inv_src |]);
    ("and", kn.and_dst, [| kn.and_s0; kn.and_s1 |]);
    ("or", kn.or_dst, [| kn.or_s0; kn.or_s1 |]);
    ("xor", kn.xor_dst, [| kn.xor_s0; kn.xor_s1 |]);
    ("andor", kn.andor_dst, [| kn.andor_a; kn.andor_b; kn.andor_c; kn.andor_d |]);
    ("orand", kn.orand_dst, [| kn.orand_a; kn.orand_b; kn.orand_c |]);
    ("xor3", kn.xor3_dst, [| kn.xor3_a; kn.xor3_b; kn.xor3_c |]);
    ("out", kn.out_dst, [| kn.out_src |]);
  |]

(* [Kernel.program] is a public record and the kernels write through its
   indices unchecked, so every index is range-checked once, here. *)
let check_index prog what i =
  let size = Kernel.size prog in
  if i < 0 || i >= size then
    invalid_arg
      (Printf.sprintf "Slab.of_program: %s index %d out of range [0, %d)" what i
         size)

(* The flat block descriptor the C stub walks: [k] then the
   eight kind counts, then (dst, src...) index tuples per kind in stub
   order, every index checked and pre-scaled by [k]. *)
let simd_descriptor prog b (kn : Kernel.kernel) =
  let k = prog.Kernel.k in
  let kinds = kinds kn in
  let len =
    Array.fold_left
      (fun n (_, dst, srcs) -> n + (Array.length dst * (1 + Array.length srcs)))
      9 kinds
  in
  let d = Array.make len 0 in
  d.(0) <- k;
  let pos = ref 9 in
  Array.iteri
    (fun x (name, dst, srcs) ->
      d.(x + 1) <- Array.length dst;
      let what = Printf.sprintf "block %d %s gate" b name in
      let push i =
        check_index prog what i;
        d.(!pos) <- i * k;
        incr pos
      in
      Array.iteri
        (fun j i ->
          push i;
          Array.iter (fun src -> push src.(j)) srcs)
        dst)
    kinds;
  d

(* Fresh per-instance state over [t]'s compiled arrays: a power-up
   value slab, and (gated engines only; empty otherwise) every block and
   dff cluster dirty with the hot/detect adaptation cleared.  Hot arrays
   are padded so instances allocated back to back never share a cache
   line across domains. *)
let fresh t =
  let nb = if t.gating then Array.length t.prog.Kernel.blocks else 0 in
  let nc = if t.gating then t.prog.Kernel.n_dff_clusters else 0 in
  let gates d = d.(1) + d.(2) + d.(3) + d.(4) + d.(5) + d.(6) + d.(7) in
  let nchanged =
    if t.gating then Array.fold_left (fun m d -> max m (gates d)) 0 t.simd_desc
    else 0
  in
  let r =
    {
      t with
      values = Array.make ((Kernel.size t.prog * t.k) + pad) 0;
      dff_next = Array.make ((Array.length t.prog.Kernel.dffs * t.k) + pad) 0;
      block_dirty = bitset_make nb;
      dff_dirty = bitset_make nc;
      cluster_scratch = Array.make nc 0;
      changed = Array.make nchanged 0;
      block_mode = Array.make nb 0;
      block_streak = Array.make nb 0;
      cycle = 0;
      force_slots = [||];
      last_marked = -1;
      dense = 0;
      unmeasured = true;
      scratch = None;
    }
  in
  bitset_fill r.block_dirty nb;
  bitset_fill r.dff_dirty nc;
  apply_initial r;
  r

(* Build an engine over an already-compiled program (the slab's K is the
   program's k): no compile-time pass re-runs.  The block descriptors
   are built, and every index of the program range-checked, here once;
   replicas share them.  At k = 1 the scaled dff indices are the
   program's own arrays, shared rather than copied, and the consumer
   maps and their unions are built only for a gated engine — an
   ungated one never reads them. *)
let of_program ?(gating = false) prog =
  let k = prog.Kernel.k in
  let simd_desc = Array.mapi (simd_descriptor prog) prog.Kernel.blocks in
  Array.iter (fun (i, _) -> check_index prog "consts" i) prog.Kernel.consts;
  Array.iter (check_index prog "dffs") prog.Kernel.dffs;
  Array.iter (check_index prog "dff_src") prog.Kernel.dff_src;
  let scale a = if k = 1 then a else Array.map (fun i -> i * k) a in
  let nblocks = Array.length prog.Kernel.blocks in
  let ncl = prog.Kernel.n_dff_clusters in
  let consumers = if gating then Kernel.consumer_blocks prog else [||] in
  let dff_sinks = if gating then Kernel.dff_sink_clusters prog else [||] in
  let unions union universe per_comp =
    if gating then Array.map mask_of_union (union universe prog per_comp)
    else [||]
  in
  fresh
    {
      prog;
      k;
      gating;
      fanout = Atomic.make None;
      scratch = None;
      simd_desc;
      consts_s =
        Array.map (fun (i, b) -> (i * k, Packed.broadcast b)) prog.Kernel.consts;
      dffs_s = scale prog.Kernel.dffs;
      dff_src_s = scale prog.Kernel.dff_src;
      dff_init_w = Array.map Packed.broadcast prog.Kernel.dff_init;
      consumers;
      dff_sinks;
      comp_owner = (if gating then Kernel.comp_block prog else [||]);
      dff_of_comp =
        (if gating then begin
           let a = Array.make (Kernel.size prog) (-1) in
           Array.iteri (fun j comp -> a.(comp) <- j) prog.Kernel.dffs;
           a
         end
         else [||]);
      block_consumers = unions block_union nblocks consumers;
      block_dff_sinks = unions block_union ncl dff_sinks;
      cluster_consumers = unions cluster_union nblocks consumers;
      cluster_sinks = unions cluster_union ncl dff_sinks;
      values = [||];
      dff_next = [||];
      block_dirty = [||];
      dff_dirty = [||];
      cluster_scratch = [||];
      changed = [||];
      block_mode = [||];
      block_streak = [||];
      cycle = 0;
      force_slots = [||];
      last_marked = -1;
      dense = 0;
      unmeasured = true;
    }

let create ?(k = 8) ?(gating = false) ?(optimize = false) ?(relayout = true)
    ?(fuse = true) ?(certify = false) ?(tuning = Kernel.default_tuning) netlist =
  if k < 1 then invalid_arg "Slab.create: k must be >= 1";
  of_program ~gating
    (Kernel.compile ~optimize ~relayout ~fuse ~certify ~tuning ~k netlist)

let replicate = fresh

(* Note the hot/detect adaptation state and the dense countdown
   deliberately survive [reset]: they are a performance cache over the
   workload's toggle pattern, cannot affect simulated values (hot and
   dense are conservative), and a reset-step loop re-running the same
   stimulus is exactly where staying hot pays. *)
let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  apply_initial t;
  if t.gating then begin
    bitset_fill t.block_dirty (Array.length t.prog.Kernel.blocks);
    bitset_fill t.dff_dirty t.prog.Kernel.n_dff_clusters
  end;
  t.cycle <- 0;
  t.last_marked <- -1;
  t.unmeasured <- true

(* Every change-detected mutation marks through here: the blocks whose
   kernels read the component, and the dff clusters that latch it. *)
let mark_comp t comp =
  mark_bits t.block_dirty t.consumers.(comp);
  let ds = t.dff_sinks.(comp) in
  if Array.length ds > 0 then mark_bits t.dff_dirty ds

let word_error what t w =
  invalid_arg
    (Printf.sprintf "%s: word index %d out of range (engine has %d words)" what
       w t.k)

let[@inline] check_word what t w = if w < 0 || w >= t.k then word_error what t w

(* Every mutation funnels through here: masked write + (when gating)
   change detection and consumer marking — skipped while the next
   settle is dense, which re-marks everything itself. *)
let write_word t comp w v =
  let v = v land lane_mask in
  let idx = (comp * t.k) + w in
  if t.gating && t.dense = 0 then begin
    if t.values.(idx) <> v then begin
      t.values.(idx) <- v;
      (* the k word-writes of one component arrive back to back; mark
         its consumers once, not once per word *)
      if t.last_marked <> comp then begin
        mark_comp t comp;
        (* a written dff no longer holds what its driver latched (a
           campaign's SEU), so its own cluster must re-latch at the next
           tick even if the driver is unchanged *)
        let j = t.dff_of_comp.(comp) in
        if j >= 0 then mark_bit t.dff_dirty (j / t.prog.Kernel.dffs_per_cluster);
        t.last_marked <- comp
      end
    end
  end
  else t.values.(idx) <- v

(* [reset] restricted to the [mask] lanes of word [word]: inputs to 0,
   dffs to their power-up bit, every other lane untouched.  Writes go
   through [write_word], so a gated engine marks the readers (and own
   cluster) of each changed component; gate lanes follow at the next
   [settle]. *)
let reset_lanes t ~word mask =
  check_word "Slab.reset_lanes" t word;
  let keep = lnot mask in
  let clear comp init =
    let idx = (comp * t.k) + word in
    write_word t comp word ((t.values.(idx) land keep) lor (init land mask))
  in
  List.iter (fun (_, comp) -> clear comp 0) t.prog.Kernel.netlist.Netlist.inputs;
  Array.iteri (fun j comp -> clear comp t.dff_init_w.(j)) t.prog.Kernel.dffs

let input_comp what t name =
  match Hashtbl.find_opt t.prog.Kernel.input_index name with
  | Some i -> i
  | None -> invalid_arg (what ^ ": unknown input " ^ name)

let set_input_word t name w v =
  check_word "Slab.set_input_word" t w;
  write_word t (input_comp "Slab.set_input_word" t name) w v

let set_input t name v = write_word t (input_comp "Slab.set_input" t name) 0 v

let set_input_bool t name b =
  let comp = input_comp "Slab.set_input_bool" t name in
  let w = Packed.broadcast b in
  for j = 0 to t.k - 1 do
    write_word t comp j w
  done

let set_input_lane t name lane b =
  if lane < 0 || lane >= lanes t then
    invalid_arg
      (Printf.sprintf "Slab.set_input_lane: lane %d out of range (engine has %d lanes)"
         lane (lanes t));
  let comp = input_comp "Slab.set_input_lane" t name in
  let w = lane / lanes_per_word and bit = lane mod lanes_per_word in
  write_word t comp w (Packed.set_lane t.values.((comp * t.k) + w) bit b)

let comp_error what t i =
  invalid_arg
    (Printf.sprintf "%s: component %d out of range (netlist has %d components)"
       what i (Kernel.size t.prog))

(* The slab index of word [w] (already checked) of component [i].  The
   slab holds [size * k] words plus the pad, so one range check rejects
   a component outside the netlist and stands in for the array's own
   bounds check on the campaigns' hot path. *)
let[@inline] comp_index what t i w =
  let idx = (i * t.k) + w in
  if idx < 0 || idx >= Array.length t.values - pad then comp_error what t i;
  idx

let check_comp what t i = ignore (comp_index what t i 0)

let peek_word t i w =
  check_word "Slab.peek_word" t w;
  Array.unsafe_get t.values (comp_index "Slab.peek_word" t i w)

let peek t i = Array.unsafe_get t.values (comp_index "Slab.peek" t i 0)

let poke_word t i w v =
  check_word "Slab.poke_word" t w;
  check_comp "Slab.poke_word" t i;
  write_word t i w v

let poke t i v =
  check_comp "Slab.poke" t i;
  write_word t i 0 v

let output_comp what t name =
  match Hashtbl.find_opt t.prog.Kernel.output_index name with
  | Some i -> i
  | None -> invalid_arg (what ^ ": unknown output " ^ name)

let output_word t name w =
  check_word "Slab.output_word" t w;
  t.values.((output_comp "Slab.output_word" t name * t.k) + w)

let output t name = t.values.(output_comp "Slab.output" t name * t.k)

let output_lane t name lane =
  if lane < 0 || lane >= lanes t then
    invalid_arg
      (Printf.sprintf "Slab.output_lane: lane %d out of range (engine has %d lanes)"
         lane (lanes t));
  let comp = output_comp "Slab.output_lane" t name in
  Packed.lane
    t.values.((comp * t.k) + (lane / lanes_per_word))
    (lane mod lanes_per_word)

let outputs t =
  List.map
    (fun (s, i) -> (s, t.values.(i * t.k)))
    t.prog.Kernel.netlist.Netlist.outputs

let cycle t = t.cycle
let netlist t = t.prog.Kernel.netlist
let critical_path t = t.prog.Kernel.levels.Levelize.critical_path
let fused_gates t = t.prog.Kernel.fused

(* On a gated engine a forced site must be re-driven to its natural
   value before each force application, exactly as the ungated engine
   recomputes (gate) or re-latches (dff) it every cycle — otherwise a
   skipped block would let [apply_forces] re-apply a flip mask to the
   already-forced value.  So each gated settle keeps every forced site's
   own block and own latch cluster dirty, and installing, replacing or
   clearing forces marks them plus the site's consumer blocks and dff
   sink clusters, so a dropped force heals.  Input and constant sites
   have neither and keep the forced value until re-driven, matching the
   ungated engine. *)
let mark_force_own t =
  Array.iter
    (fun slot ->
      Array.iter
        (fun f ->
          let own = t.comp_owner.(f.f_site) in
          if own >= 0 then mark_bit t.block_dirty own;
          let j = t.dff_of_comp.(f.f_site) in
          if j >= 0 then
            mark_bit t.dff_dirty (j / t.prog.Kernel.dffs_per_cluster))
        slot)
    t.force_slots

let mark_force_sites t =
  if t.gating then begin
    mark_force_own t;
    Array.iter
      (fun slot -> Array.iter (fun f -> mark_comp t f.f_site) slot)
      t.force_slots
  end

let check_fusion what t =
  if t.prog.Kernel.fused > 0 then
    invalid_arg (what ^ ": requires an engine built with ~fuse:false")

let set_forces t forces =
  check_fusion "Slab.set_forces" t;
  mark_force_sites t;
  let slots = Array.make (Kernel.n_force_slots t.prog) [] in
  Array.iter
    (fun f ->
      if
        Array.length f.force0 <> t.k
        || Array.length f.force1 <> t.k
        || Array.length f.flip <> t.k
      then
        invalid_arg
          (Printf.sprintf "Slab.set_forces: mask arrays must have k = %d words"
             t.k);
      let slot = Kernel.force_slot ~what:"Slab.set_forces" t.prog f.f_site in
      slots.(slot) <- f :: slots.(slot))
    forces;
  t.force_slots <- Array.map (fun l -> Array.of_list (List.rev l)) slots;
  mark_force_sites t

let clear_forces t =
  mark_force_sites t;
  t.force_slots <- [||]

(* Apply one slot's force masks.  On a gated engine the writes are
   change-detected, so a force edit (a campaign mutating its per-cycle
   flip masks in place, or a site whose block just recomputed a natural
   value the force overrides) marks the site's readers like any other
   mutation; during a dense sweep those marks are harmless, since
   [settle] then clears every block bit and marks every dff cluster. *)
let apply_forces t slot =
  let values = t.values and k = t.k in
  for j = 0 to Array.length slot - 1 do
    let f = Array.unsafe_get slot j in
    let base = f.f_site * k in
    let diff = ref 0 in
    for w = 0 to k - 1 do
      let v = Array.unsafe_get values (base + w) in
      let nv =
        (((v land lnot (Array.unsafe_get f.force0 w))
         lor Array.unsafe_get f.force1 w)
        lxor Array.unsafe_get f.flip w)
        land lane_mask
      in
      diff := !diff lor (v lxor nv);
      Array.unsafe_set values (base + w) nv
    done;
    if !diff <> 0 && t.gating then mark_comp t f.f_site
  done

(* The C block kernel ([kernel_stubs.c]).  [settle_block values desc]
   evaluates one block over the value slab in place, from its
   descriptor ([simd_descriptor]); [settle_block_detect values desc
   changed] does the same, writes the unscaled component index of each
   non-outport gate whose K words changed into [changed] and returns
   their count.  Both trust their arguments, so they stay private here:
   every descriptor index is range-checked in [of_program], and
   [changed] is as long as the largest block's non-outport gate count.
   [@@noalloc]: the stub never allocates, touches the OCaml runtime or
   releases the domain lock, so the arrays cannot move under it. *)
external settle_block : int array -> int array -> unit = "hydra_settle_block"
[@@noalloc]

external settle_block_detect : int array -> int array -> int array -> int
  = "hydra_settle_block_detect"
[@@noalloc]

external kernel_kind : unit -> int = "hydra_simd_kind" [@@noalloc]

let kernel_flavor () =
  match kernel_kind () with 2 -> "avx2" | 1 -> "neon" | _ -> "scalar-c"

(* The ungated rank sweep: every block through the plain kernels, plain
   force slots at the rank boundaries.  An ungated engine settles with
   it, and so does a gated one while it sweeps dense. *)
let sweep t =
  let values = t.values and desc = t.simd_desc in
  let rfb = t.prog.Kernel.rank_first_block in
  let slots = t.force_slots in
  let forced = Array.length slots > 0 in
  if forced then apply_forces t (Array.unsafe_get slots 0);
  for lvl = 0 to Array.length rfb - 2 do
    for b = Array.unsafe_get rfb lvl to Array.unsafe_get rfb (lvl + 1) - 1 do
      settle_block values (Array.unsafe_get desc b)
    done;
    if forced then apply_forces t (Array.unsafe_get slots (lvl + 1))
  done

(* Gated settle: run only dirty blocks, ascending (consumer blocks are
   always at strictly higher ranks, so one sweep reaches the whole
   active cone); hot blocks take the plain C kernel and mark their
   whole consumer union, detecting blocks take the detecting one, mark
   the readers of each changed gate and drive the mode transitions.  Forces are applied at the same rank-boundary
   slots as the ungated engine, change-detected.  A fully-quiescent
   unforced engine exits after one scan of the bitset words.  A settle
   that ran at least 7/8 of the blocks switches the engine to dense
   sweeps for the next [tuning.probe_period] settles (see [settle]),
   unless its bitset was full by construction after [fresh]/[reset]. *)
let settle_gated t =
  t.last_marked <- -1;
  let dirty = t.block_dirty in
  let slots = t.force_slots in
  let forced = Array.length slots > 0 in
  if forced || any_bit dirty then begin
    let desc = t.simd_desc and chg = t.changed in
    let rfb = t.prog.Kernel.rank_first_block in
    let modes = t.block_mode and streaks = t.block_streak in
    let hot_after = t.prog.Kernel.tuning.Kernel.hot_after in
    let probe_period = t.prog.Kernel.tuning.Kernel.probe_period in
    let ran = ref 0 in
    if forced then begin
      mark_force_own t;
      apply_forces t (Array.unsafe_get slots 0)
    end;
    for lvl = 0 to Array.length rfb - 2 do
      for b = Array.unsafe_get rfb lvl to Array.unsafe_get rfb (lvl + 1) - 1 do
        if bit_test dirty b then begin
          bit_clear dirty b;
          incr ran;
          let mode = Array.unsafe_get modes b in
          if mode > 0 then begin
            Array.unsafe_set modes b (mode - 1);
            (* leaving hot mode: seed the streak so a single changed
               probe run re-arms a recently-hot block, instead of
               paying [hot_after] detect-mode runs per probe *)
            if mode = 1 then Array.unsafe_set streaks b (hot_after - 1);
            settle_block t.values (Array.unsafe_get desc b);
            or_mask dirty (Array.unsafe_get t.block_consumers b);
            or_mask t.dff_dirty (Array.unsafe_get t.block_dff_sinks b)
          end
          else begin
            let n = settle_block_detect t.values (Array.unsafe_get desc b) chg in
            for x = 0 to n - 1 do
              mark_comp t (Array.unsafe_get chg x)
            done;
            if n > 0 then begin
              let s = Array.unsafe_get streaks b + 1 in
              if s >= hot_after then begin
                Array.unsafe_set streaks b 0;
                Array.unsafe_set modes b probe_period
              end
              else Array.unsafe_set streaks b s
            end
            else Array.unsafe_set streaks b 0
          end
        end
      done;
      if forced then apply_forces t (Array.unsafe_get slots (lvl + 1))
    done;
    if !ran * 8 >= Array.length desc * 7 && not t.unmeasured then
      t.dense <- probe_period;
    t.unmeasured <- false
  end

(* A dense settle is the ungated sweep; it leaves every gate exact, so it
   clears every block bit and marks every dff cluster for the gated tick
   that precedes the next measured settle. *)
let settle t =
  if not t.gating then sweep t
  else if t.dense > 0 then begin
    t.dense <- t.dense - 1;
    t.unmeasured <- false;
    sweep t;
    Array.fill t.block_dirty 0 (Array.length t.block_dirty) 0;
    bitset_fill t.dff_dirty t.prog.Kernel.n_dff_clusters
  end
  else settle_gated t

(* --- cones: settle a fanout-closed subset against a golden trace --- *)

(* The driver-to-reader CSR: component [c]'s readers are entries
   [rd_off.{c}] to [rd_off.{c + 1} - 1] of [rd]. *)
let build_fanout (nl : Netlist.t) =
  let n = Netlist.size nl and fanin = nl.Netlist.fanin in
  let index len = Bigarray.(Array1.create int32 c_layout) len in
  let off = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun s -> off.(s + 1) <- off.(s + 1) + 1)) fanin;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let rd_off = index (n + 1) and rd = index off.(n) in
  Array.iteri (fun i o -> rd_off.{i} <- Int32.of_int o) off;
  Array.iteri
    (fun r fi ->
      Array.iter
        (fun s ->
          rd.{off.(s)} <- Int32.of_int r;
          off.(s) <- off.(s) + 1)
        fi)
    fanin;
  { rd_off; rd; wide = Bytes.make n '\000' }

let fanout t =
  match Atomic.get t.fanout with
  | Some f -> f
  | None ->
    let f = build_fanout t.prog.Kernel.netlist in
    Atomic.set t.fanout (Some f);
    f

type cone = { c_scratch : scratch; c_gen : int }

let scratch t =
  match t.scratch with
  | Some s -> s
  | None ->
    let n = Kernel.size t.prog and nranks = Kernel.n_ranks t.prog in
    let s =
      {
        s_mark = Bytes.make n '\000';
        s_slots = Array.make (nranks * 8) 0;
        s_queue = [||];
        s_desc = Array.make nranks [||];
        s_live = Bytes.make nranks '\000';
        s_front = [||];
        s_nfront = 0;
        s_set = Array.make ((n + lanes_per_word - 1) / lanes_per_word) 0;
        s_gen = 0;
      }
    in
    t.scratch <- Some s;
    s

(* [a] with room for index [i]: doubled (and copied) when full. *)
let room a i =
  if i < Array.length a then a
  else begin
    let b = Array.make (max 64 (2 * (i + 1))) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The cone of the [nu] distinct members at the head of the scratch
   queue, each already marked 1.  The frontier collects behind them
   (marked 2); then every mark and count is cleared again. *)
let build_cone t sc nu =
  let prog = t.prog and k = t.k in
  let comps = prog.Kernel.netlist.Netlist.components in
  let fanin = prog.Kernel.netlist.Netlist.fanin in
  let levels = prog.Kernel.levels.Levelize.levels in
  let counts = sc.s_slots and mark = sc.s_mark in
  (* a gate's or outport's descriptor slot, [rank * 8 + kind] with kind
     in stub order (inv, and, or, xor, ..., out); -1 for a dff, -2 for
     an inport or constant (never on the frontier) *)
  let slot i =
    match comps.(i) with
    | Netlist.Invc -> levels.(i) * 8
    | Netlist.And2c -> (levels.(i) * 8) + 1
    | Netlist.Or2c -> (levels.(i) * 8) + 2
    | Netlist.Xor2c -> (levels.(i) * 8) + 3
    | Netlist.Outport _ -> (levels.(i) * 8) + 7
    | Netlist.Dffc _ -> -1
    | Netlist.Inport _ | Netlist.Constant _ -> -2
  in
  let nf = ref nu in
  for x = 0 to nu - 1 do
    let i = sc.s_queue.(x) in
    let sl = slot i in
    if sl >= 0 then counts.(sl) <- counts.(sl) + 1;
    let fi = fanin.(i) in
    for a = 0 to Array.length fi - 1 do
      let s = fi.(a) in
      if Bytes.get mark s = '\000' && slot s <> -2 then begin
        Bytes.unsafe_set mark s '\002';
        sc.s_queue <- room sc.s_queue !nf;
        sc.s_queue.(!nf) <- s;
        incr nf
      end
    done
  done;
  let q = sc.s_queue in
  (* per rank: size the descriptor and write its header, then turn each
     count into the write cursor of its kind's tuples *)
  let tuple kd = if kd = 0 || kd = 7 then 2 else 3 in
  for r = 0 to Array.length sc.s_desc - 1 do
    let len = ref 9 in
    for kd = 0 to 7 do
      len := !len + (counts.((r * 8) + kd) * tuple kd)
    done;
    Bytes.set sc.s_live r (if !len > 9 then '\001' else '\000');
    if !len > 9 then begin
      let d = room sc.s_desc.(r) (!len - 1) in
      sc.s_desc.(r) <- d;
      d.(0) <- k;
      let pos = ref 9 in
      for kd = 0 to 7 do
        let c = counts.((r * 8) + kd) in
        d.(kd + 1) <- c;
        counts.((r * 8) + kd) <- !pos;
        pos := !pos + (c * tuple kd)
      done
    end
  done;
  let set = sc.s_set in
  Array.fill set 0 (Array.length set) 0;
  for x = 0 to nu - 1 do
    let i = q.(x) in
    let w = i / lanes_per_word in
    set.(w) <- set.(w) lor (1 lsl (i mod lanes_per_word));
    let sl = slot i in
    if sl >= 0 then begin
      let d = sc.s_desc.(sl lsr 3) and p = counts.(sl) and fi = fanin.(i) in
      d.(p) <- i * k;
      d.(p + 1) <- fi.(0) * k;
      if tuple (sl land 7) = 3 then d.(p + 2) <- fi.(1) * k;
      counts.(sl) <- p + tuple (sl land 7)
    end
  done;
  Array.fill counts 0 (Array.length counts) 0;
  for x = 0 to !nf - 1 do
    Bytes.unsafe_set mark q.(x) '\000'
  done;
  sc.s_front <- room sc.s_front (!nf - nu);
  Array.blit q nu sc.s_front 0 (!nf - nu);
  sc.s_nfront <- !nf - nu;
  sc.s_gen <- sc.s_gen + 1;
  { c_scratch = sc; c_gen = sc.s_gen }

let cone t members =
  check_fusion "Slab.cone" t;
  let n = Kernel.size t.prog and fanin = t.prog.Kernel.netlist.Netlist.fanin in
  let check what i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Slab.cone: %s %d out of range [0, %d)" what i n)
  in
  Array.iter
    (fun i ->
      check "member" i;
      let fi = fanin.(i) in
      for a = 0 to Array.length fi - 1 do
        check "source" fi.(a)
      done)
    members;
  let sc = scratch t in
  let nu = ref 0 in
  Array.iter
    (fun i ->
      if Bytes.get sc.s_mark i = '\000' then begin
        Bytes.set sc.s_mark i '\001';
        sc.s_queue <- room sc.s_queue !nu;
        sc.s_queue.(!nu) <- i;
        incr nu
      end)
    members;
  build_cone t sc !nu

(* The closure walks breadth-first through the scratch queue, whose
   head then holds the members, already marked, for [build_cone].  A
   walk that passes the bound from several seeds walks again from the
   first alone, to mark it [wide] if it passes the bound by itself: a
   campaign offers the same first seeds request after request. *)
let fanout_cone t seeds =
  check_fusion "Slab.fanout_cone" t;
  Array.iter (check_comp "Slab.fanout_cone" t) seeds;
  let f = fanout t and sc = scratch t in
  let limit = Kernel.size t.prog / 8 in
  let seen = sc.s_mark and len = ref 0 in
  let add i =
    if Bytes.unsafe_get seen i = '\000' then begin
      if !len >= limit then raise_notrace Exit;
      Bytes.unsafe_set seen i '\001';
      sc.s_queue <- room sc.s_queue !len;
      sc.s_queue.(!len) <- i;
      incr len
    end
  in
  let clear () =
    for x = 0 to !len - 1 do
      Bytes.unsafe_set seen sc.s_queue.(x) '\000'
    done
  in
  (* true with the closure's marks set, or false with them cleared *)
  let walk seeds =
    len := 0;
    match
      Array.iter add seeds;
      let head = ref 0 in
      while !head < !len do
        let c = sc.s_queue.(!head) in
        incr head;
        for e = Int32.to_int f.rd_off.{c} to Int32.to_int f.rd_off.{c + 1} - 1 do
          add (Int32.to_int f.rd.{e})
        done
      done
    with
    | () -> true
    | exception Exit ->
      clear ();
      false
  in
  if Array.exists (fun s -> Bytes.get f.wide s = '\001') seeds then None
  else if walk seeds then Some (build_cone t sc !len)
  else begin
    (* a failed walk had at least one seed *)
    if Array.length seeds = 1 || not (walk [| seeds.(0) |]) then
      Bytes.set f.wide seeds.(0) '\001'
    else clear ();
    None
  end

(* A cone is its instance's current one until the next is built. *)
let check_cone what t c =
  match t.scratch with
  | Some sc when sc == c.c_scratch && sc.s_gen = c.c_gen -> sc
  | _ ->
    invalid_arg
      (what ^ ": the cone belongs to another engine instance or was replaced")

let in_cone t c i =
  let sc = check_cone "Slab.in_cone" t c in
  i >= 0
  && i / lanes_per_word < Array.length sc.s_set
  && (sc.s_set.(i / lanes_per_word) lsr (i mod lanes_per_word)) land 1 = 1

(* A golden trace: per cycle, one row of [words] words holding lane 0
   of every component, component [i] at bit [i mod 62] of the row's
   word [i / 62]. *)
type trace = { size : int; words : int; rows : int array }

let trace t ~cycles =
  let size = Kernel.size t.prog in
  let words = (size + lanes_per_word - 1) / lanes_per_word in
  { size; words; rows = Array.make (max 0 cycles * words) 0 }

let check_trace what t tr c =
  if tr.size <> Kernel.size t.prog then
    invalid_arg (what ^ ": the trace was made for another circuit");
  if c < 0 || (c + 1) * tr.words > Array.length tr.rows then
    invalid_arg
      (Printf.sprintf "%s: cycle %d outside the trace (%d cycles)" what c
         (Array.length tr.rows / max 1 tr.words))

let golden_bit tr c i =
  if i < 0 || i >= tr.size || c < 0 || (c + 1) * tr.words > Array.length tr.rows then
    invalid_arg "Slab.golden_bit: cycle or component outside the trace";
  (tr.rows.((c * tr.words) + (i / lanes_per_word)) lsr (i mod lanes_per_word)) land 1
  = 1

let record_row t tr c =
  check_trace "Slab.record_row" t tr c;
  let values = t.values and k = t.k and off = c * tr.words in
  for wi = 0 to tr.words - 1 do
    let lo = wi * lanes_per_word in
    let acc = ref 0 in
    for i = lo to min tr.size (lo + lanes_per_word) - 1 do
      acc := !acc lor ((Array.unsafe_get values (i * k) land 1) lsl (i - lo))
    done;
    tr.rows.(off + wi) <- !acc
  done

(* The frontier's golden words go straight into the slab; then the
   member ranks run with the force slots at [sweep]'s boundaries.  A
   gated engine's gates outside the cone are now stale, so every block
   and dff cluster is marked: the next tick latches every dff, as after
   an ungated settle, and the next gated settle recomputes everything. *)
let settle_cone t c tr cycle =
  let sc = check_cone "Slab.settle_cone" t c in
  check_trace "Slab.settle_cone" t tr cycle;
  let values = t.values and k = t.k and fr = sc.s_front in
  let row = tr.rows and off = cycle * tr.words in
  for x = 0 to sc.s_nfront - 1 do
    let comp = Array.unsafe_get fr x in
    let bit =
      Array.unsafe_get row (off + (comp / lanes_per_word)) lsr (comp mod lanes_per_word)
    in
    let v = -(bit land 1) land lane_mask and base = comp * k in
    for w = base to base + k - 1 do
      Array.unsafe_set values w v
    done
  done;
  let slots = t.force_slots and desc = sc.s_desc and live = sc.s_live in
  let forced = Array.length slots > 0 in
  if forced then apply_forces t (Array.unsafe_get slots 0);
  for lvl = 0 to Array.length desc - 1 do
    if Bytes.unsafe_get live lvl = '\001' then settle_block values (Array.unsafe_get desc lvl);
    if forced then apply_forces t (Array.unsafe_get slots (lvl + 1))
  done;
  if t.gating then begin
    bitset_fill t.block_dirty (Array.length t.prog.Kernel.blocks);
    bitset_fill t.dff_dirty t.prog.Kernel.n_dff_clusters;
    t.last_marked <- -1;
    t.unmeasured <- true
  end

(* Gated tick: latch only dirty dff clusters.  The dirty bits are
   snapshotted (and cleared) up front, then the staged copy runs in two
   passes over the snapshot — pass 2's writes mark sink clusters for
   the *next* tick without disturbing the snapshot, and dff-chain reads
   in pass 1 still see every pre-tick value whatever the cluster
   order. *)
let tick_gated t =
  t.last_marked <- -1;
  let values = t.values and next = t.dff_next and k = t.k in
  let km1 = k - 1 in
  let dffs = t.dffs_s and src = t.dff_src_s in
  let n = Array.length dffs in
  let cpd = t.prog.Kernel.dffs_per_cluster in
  let dd = t.dff_dirty in
  let snap = t.cluster_scratch in
  let nsnap = ref 0 in
  for wi = 0 to Array.length dd - 1 do
    let word = Array.unsafe_get dd wi in
    if word <> 0 then begin
      Array.unsafe_set dd wi 0;
      for bit = 0 to 31 do
        if word land (1 lsl bit) <> 0 then begin
          Array.unsafe_set snap !nsnap ((wi lsl 5) lor bit);
          incr nsnap
        end
      done
    end
  done;
  for x = 0 to !nsnap - 1 do
    let cl = Array.unsafe_get snap x in
    let lo = cl * cpd in
    let hi = min n (lo + cpd) - 1 in
    for j = lo to hi do
      let s = Array.unsafe_get src j and base = j * k in
      for w = 0 to km1 do
        Array.unsafe_set next (base + w) (Array.unsafe_get values (s + w))
      done
    done
  done;
  for x = 0 to !nsnap - 1 do
    let cl = Array.unsafe_get snap x in
    let lo = cl * cpd in
    let hi = min n (lo + cpd) - 1 in
    let cl_diff = ref 0 in
    for j = lo to hi do
      let d = Array.unsafe_get dffs j and base = j * k in
      for w = 0 to km1 do
        let old = Array.unsafe_get values (d + w) in
        let nv = Array.unsafe_get next (base + w) in
        cl_diff := !cl_diff lor (old lxor nv);
        Array.unsafe_set values (d + w) nv
      done
    done;
    if !cl_diff <> 0 then begin
      or_mask t.block_dirty t.cluster_consumers.(cl);
      or_mask t.dff_dirty t.cluster_sinks.(cl)
    end
  done;
  t.cycle <- t.cycle + 1

(* While dense settles remain, a gated engine latches ungated: the next
   settle runs every block whatever the tick marks. *)
let tick t =
  if t.gating && t.dense = 0 then tick_gated t
  else if t.k = 1 then begin
    (* one word per dff: the index arithmetic of the K-word loops below
       would cost ~3x here *)
    let values = t.values and next = t.dff_next in
    let dffs = t.dffs_s and src = t.dff_src_s in
    for j = 0 to Array.length dffs - 1 do
      Array.unsafe_set next j (Array.unsafe_get values (Array.unsafe_get src j))
    done;
    for j = 0 to Array.length dffs - 1 do
      Array.unsafe_set values (Array.unsafe_get dffs j) (Array.unsafe_get next j)
    done;
    t.cycle <- t.cycle + 1
  end
  else begin
    let values = t.values and next = t.dff_next and k = t.k in
    let km1 = k - 1 in
    let dffs = t.dffs_s and src = t.dff_src_s in
    let n = Array.length dffs in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get src j and base = j * k in
      for w = 0 to km1 do
        Array.unsafe_set next (base + w) (Array.unsafe_get values (s + w))
      done
    done;
    for j = 0 to n - 1 do
      let d = Array.unsafe_get dffs j and base = j * k in
      for w = 0 to km1 do
        Array.unsafe_set values (d + w) (Array.unsafe_get next (base + w))
      done
    done;
    t.cycle <- t.cycle + 1
  end

let step t =
  settle t;
  tick t

let run_packed t ~inputs ~cycles =
  reset t;
  let rows = ref [] in
  for c = 0 to cycles - 1 do
    List.iter
      (fun (name, vals) ->
        let value = match List.nth_opt vals c with Some w -> w | None -> 0 in
        let comp = input_comp "Slab.run_packed" t name in
        for w = 0 to t.k - 1 do
          write_word t comp w value
        done)
      inputs;
    settle t;
    rows := outputs t :: !rows;
    tick t
  done;
  List.rev !rows

let run_vectors t vectors =
  let nvec = Array.length vectors in
  let nl = netlist t in
  let in_ports = Array.of_list nl.Netlist.inputs in
  let out_ports = Array.of_list nl.Netlist.outputs in
  let nin = Array.length in_ports and nout = Array.length out_ports in
  Array.iter
    (fun v ->
      if Array.length v <> nin then
        invalid_arg "Slab.run_vectors: vector arity mismatch")
    vectors;
  let per_pass = lanes t in
  let results = Array.make nvec [||] in
  let npasses = (nvec + per_pass - 1) / per_pass in
  for p = 0 to npasses - 1 do
    let base = p * per_pass in
    let count = min per_pass (nvec - base) in
    reset t;
    for j = 0 to nin - 1 do
      let comp = snd in_ports.(j) in
      for w = 0 to t.k - 1 do
        let word = ref 0 in
        let lo = w * lanes_per_word in
        let hi = min (lo + lanes_per_word) count in
        for l = lo to hi - 1 do
          if vectors.(base + l).(j) then word := !word lor (1 lsl (l - lo))
        done;
        write_word t comp w !word
      done
    done;
    settle t;
    let out_words =
      Array.map
        (fun (_, i) -> Array.init t.k (fun w -> t.values.((i * t.k) + w)))
        out_ports
    in
    for l = 0 to count - 1 do
      let w = l / lanes_per_word and bit = l mod lanes_per_word in
      results.(base + l) <-
        Array.init nout (fun j -> Packed.lane out_words.(j).(w) bit)
    done
  done;
  results

let engine ?(gating = false) ?tuning kk : (module Engine_intf.S) =
  if kk < 1 then invalid_arg "Slab.engine: k must be >= 1";
  (module struct
    type nonrec t = t

    let name =
      Printf.sprintf "slab(k=%d%s%s)" kk
        (if gating then ",gated" else "")
        (match tuning with
        | Some tu when tu <> Kernel.default_tuning ->
          "," ^ Kernel.tuning_to_spec tu
        | _ -> "")

    let create ?optimize ?relayout ?fuse ?certify nl =
      create ~k:kk ~gating ?tuning ?optimize ?relayout ?fuse ?certify nl

    let words = words
    let replicate = replicate
    let reset = reset
    let set_input_word = set_input_word
    let set_input_lane = set_input_lane
    let settle = settle
    let tick = tick
    let step = step
    let output_word = output_word
    let output_lane = output_lane
    let peek_word = peek_word
    let poke_word = poke_word
    let cycle = cycle
    let netlist = netlist
  end)
