(* Multi-word slab simulator: K consecutive 62-lane words per signal in
   one flat int array.  This is the only word-parallel runtime; the
   62-lane "wide" engine is its k = 1 instance ({!Compiled_wide}).

   One tagged int carries 62 lanes; here signal [i] owns words
   [i*k .. i*k + k - 1] of the slab, and every kernel loop runs its gate
   over the whole K-word run before moving on — 62*K lanes per settle
   pass, with the per-gate dst/src index loads (the bottleneck at
   k = 1) amortized K ways and the K value words streaming from
   consecutive addresses.  The compile pipeline is {!Kernel}, which
   writes one flat descriptor per rank in the layout the C stub walks;
   the only addition here is a checked copy of each with every index
   pre-scaled by [k], so the hot loops never multiply.

   Every levelized rank runs through one kernel, the C stub in
   [kernel_stubs.c], from that copy of its descriptor.  The stub
   specialises k = 1 and uses AVX2/NEON vector loads when the build
   enabled them (tagged ints vectorize directly: and/or preserve the
   tag, xor re-ors it, inv masks against [lane_mask lsl 1]), so no
   gate-evaluation loop is OCaml.

   The unit of iteration is the levelized rank: {!Kernel.program} holds
   one descriptor per rank, whose members are mutually independent, and
   the stub runs all of a rank's per-kind loops before the sweep moves
   on.
   A settle is one ascending sweep over the ranks, with force masks
   applied at the rank boundaries; a tick latches every dff through a
   second C stub.

   A cone settle ([settle_cone]) runs the stub over per-rank descriptors
   of just a fanout-closed component set, built per instance in a
   reused scratch, after writing a golden trace's bits to the set's
   frontier: the fault campaign's way to settle only what its faults
   can reach.  Two more C passes ([diff_lanes], [latch_lanes]) answer
   the campaign's per-cycle lane questions, one lane mask per word. *)

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
  readers : (int array * int array * Bytes.t) option Atomic.t;
      (* built on the first [fanout_cone], shared by replicas: the
         [off] and [sink] rows of {!Netlist.fanout} (readers, dff inputs
         included), and per component whether its closure alone was
         found past the cone bound, so a later closure holding it fails
         without a walk (replicas set bytes concurrently, only ever from
         0 to 1) *)
  mutable scratch : scratch option;
      (* this instance's cone scratch and current cone, built on first
         use *)
  rank_desc : int array array;
      (* per rank: the scaled descriptor the C stub runs *)
  consts_s : (int * int) array;  (* scaled base index, broadcast word *)
  dffs_s : int array;  (* scaled dff bases *)
  dff_src_s : int array;  (* scaled driver bases *)
  dff_init_w : int array;  (* broadcast power-up words *)
  values : int array;  (* the slab: size * k + pad *)
  dff_next : int array;  (* ndffs * k + pad *)
  mutable cycle : int;
  mutable force_slots : force array array;
}

let k t = t.k
let words t = t.k
let program t = t.prog
let lanes t = lanes_per_word * t.k

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

(* [Kernel.program] is a public record and the stubs write through its
   indices unchecked, so every index is range-checked once, here. *)
let check_index prog what i =
  let size = Kernel.size prog in
  if i < 0 || i >= size then
    invalid_arg
      (Printf.sprintf "Slab.of_program: %s index %d out of range [0, %d)" what i
         size)

(* This slab's copy of rank [r]'s descriptor [d], the one the C stub
   runs: [k] in slot 0 and every index scaled by [k].  The header counts
   are checked against [d]'s length first, then every index against
   [0, size) as it is copied. *)
let scaled_rank prog r d =
  let k = prog.Kernel.k and size = Kernel.size prog and len = Array.length d in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Slab.of_program: rank " ^ m)) fmt
  in
  if len < Kernel.header then
    fail "%d descriptor has %d words, shorter than its %d-word header" r len
      Kernel.header;
  let need = ref Kernel.header in
  for kd = 0 to Kernel.n_kinds - 1 do
    let c = d.(kd + 1) in
    if c < 0 || c > len then
      fail "%d %s count %d outside [0, %d]" r Kernel.kind_names.(kd) c len;
    need := !need + (c * (1 + Kernel.arity.(kd)))
  done;
  if !need <> len then
    fail "%d descriptor has %d words, its header (%s) needs %d" r len
      (String.concat ", "
         (List.init Kernel.n_kinds (fun kd ->
              Printf.sprintf "%s %d" Kernel.kind_names.(kd) d.(kd + 1))))
      !need;
  let s = Array.make len k in
  Array.blit d 1 s 1 Kernel.n_kinds;
  let pos = ref Kernel.header in
  for kd = 0 to Kernel.n_kinds - 1 do
    for _ = 1 to d.(kd + 1) * (1 + Kernel.arity.(kd)) do
      let i = d.(!pos) in
      if i < 0 || i >= size then
        fail "%d %s gate index %d out of range [0, %d)" r Kernel.kind_names.(kd) i
          size;
      s.(!pos) <- i * k;
      incr pos
    done
  done;
  s

(* Fresh per-instance state over [t]'s compiled arrays: a power-up
   value slab.  Hot arrays are padded so instances allocated back to
   back never share a cache line across domains. *)
let fresh t =
  let r =
    {
      t with
      values = Array.make ((Kernel.size t.prog * t.k) + pad) 0;
      dff_next = Array.make ((Array.length t.prog.Kernel.dffs * t.k) + pad) 0;
      cycle = 0;
      force_slots = [||];
      scratch = None;
    }
  in
  apply_initial r;
  r

(* Build an engine over an already-compiled program (the slab's K is the
   program's k): no compile-time pass re-runs.  Every array the stubs
   index is copied here, scaled and checked once, at every k, so a later
   write to the program cannot reach them; replicas share the copies. *)
let of_program prog =
  let k = prog.Kernel.k in
  if k < 1 then
    invalid_arg (Printf.sprintf "Slab.of_program: k = %d, must be >= 1" k);
  let ndffs = Array.length prog.Kernel.dffs in
  let check_len what n =
    if n <> ndffs then
      invalid_arg
        (Printf.sprintf "Slab.of_program: %s has %d entries, dffs has %d" what n
           ndffs)
  in
  check_len "dff_src" (Array.length prog.Kernel.dff_src);
  check_len "dff_init" (Array.length prog.Kernel.dff_init);
  (* a gate's level picks its force slot and its cone rank *)
  let levels = prog.Kernel.levels.Levelize.levels in
  let n_ranks = Kernel.n_ranks prog in
  if Array.length levels <> Kernel.size prog then
    invalid_arg
      (Printf.sprintf "Slab.of_program: levels has %d entries, netlist has %d"
         (Array.length levels) (Kernel.size prog));
  Array.iteri
    (fun i c ->
      match c with
      | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
      | Netlist.Outport _
        when levels.(i) < 0 || levels.(i) >= n_ranks ->
        invalid_arg
          (Printf.sprintf
             "Slab.of_program: component %d has level %d, outside the %d ranks"
             i levels.(i) n_ranks)
      | _ -> ())
    prog.Kernel.netlist.Netlist.components;
  let rank_desc = Array.mapi (scaled_rank prog) prog.Kernel.ranks in
  Array.iter (fun (i, _) -> check_index prog "consts" i) prog.Kernel.consts;
  Array.iter (check_index prog "dffs") prog.Kernel.dffs;
  Array.iter (check_index prog "dff_src") prog.Kernel.dff_src;
  let scale a = Array.map (fun i -> i * k) a in
  fresh
    {
      prog;
      k;
      readers = Atomic.make None;
      scratch = None;
      rank_desc;
      consts_s =
        Array.map (fun (i, b) -> (i * k, Packed.broadcast b)) prog.Kernel.consts;
      dffs_s = scale prog.Kernel.dffs;
      dff_src_s = scale prog.Kernel.dff_src;
      dff_init_w = Array.map Packed.broadcast prog.Kernel.dff_init;
      values = [||];
      dff_next = [||];
      cycle = 0;
      force_slots = [||];
    }

(* [?gating] is accepted and ignored: every engine settles with one full
   sweep.  It stays only until the workload benchmark stops passing it
   (ROADMAP item 1). *)
let create ?(k = 8) ?gating:_ netlist =
  if k < 1 then invalid_arg "Slab.create: k must be >= 1";
  of_program (Kernel.compile ~k netlist)

let replicate = fresh

let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  apply_initial t;
  t.cycle <- 0

let word_error what t w =
  invalid_arg
    (Printf.sprintf "%s: word index %d out of range (engine has %d words)" what
       w t.k)

let[@inline] check_word what t w = if w < 0 || w >= t.k then word_error what t w

(* Input, poke and lane-reset writes funnel through here: masked to the
   62 lanes. *)
let write_word t comp w v = t.values.((comp * t.k) + w) <- v land lane_mask

(* [reset] restricted to the [mask] lanes of word [word]: inputs to 0,
   dffs to their power-up bit, every other lane untouched; gate lanes
   follow at the next [settle]. *)
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
let fused_gates t = t.prog.Kernel.fused

let check_fusion what t =
  if t.prog.Kernel.fused > 0 then
    invalid_arg (what ^ ": requires an engine built with ~fuse:false")

let set_forces t forces =
  check_fusion "Slab.set_forces" t;
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
  t.force_slots <- Array.map (fun l -> Array.of_list (List.rev l)) slots

let clear_forces t = t.force_slots <- [||]

(* Apply one slot's force masks to the sites' current words. *)
let apply_forces t slot =
  let values = t.values and k = t.k in
  for j = 0 to Array.length slot - 1 do
    let f = Array.unsafe_get slot j in
    let base = f.f_site * k in
    for w = 0 to k - 1 do
      let v = Array.unsafe_get values (base + w) in
      Array.unsafe_set values (base + w)
        ((((v land lnot (Array.unsafe_get f.force0 w))
          lor Array.unsafe_get f.force1 w)
         lxor Array.unsafe_get f.flip w)
        land lane_mask)
    done
  done

(* The C kernels ([kernel_stubs.c]).  [settle_block values desc]
   evaluates one rank over the value slab in place, from its
   descriptor ([scaled_rank]); [tick_block values next dffs srcs k]
   latches every dff ([tick]).  They trust their arguments, so they stay
   private here: every index they read is range-checked in
   [of_program].  [@@noalloc]: the stubs never allocate, touch the
   OCaml runtime or release the domain lock, so the arrays cannot move
   under them. *)
external settle_block : int array -> int array -> unit = "hydra_settle_block"
[@@noalloc]

external tick_block : int array -> int array -> int array -> int array -> int -> unit
  = "hydra_tick"
[@@noalloc]

external kernel_kind : unit -> int = "hydra_simd_kind" [@@noalloc]

let kernel_flavor () =
  match kernel_kind () with 2 -> "avx2" | 1 -> "neon" | _ -> "scalar-c"

(* The rank sweep: every rank through the C kernel, force slots at the
   rank boundaries. *)
let settle t =
  let values = t.values and desc = t.rank_desc in
  let slots = t.force_slots in
  let forced = Array.length slots > 0 in
  if forced then apply_forces t (Array.unsafe_get slots 0);
  for lvl = 0 to Array.length desc - 1 do
    settle_block values (Array.unsafe_get desc lvl);
    if forced then apply_forces t (Array.unsafe_get slots (lvl + 1))
  done

(* --- cones: settle a fanout-closed subset against a golden trace --- *)

let readers t =
  match Atomic.get t.readers with
  | Some r -> r
  | None ->
    let nl = t.prog.Kernel.netlist in
    let { Netlist.off; sink; _ } = Netlist.fanout nl in
    let r = (off, sink, Bytes.make (Netlist.size nl) '\000') in
    Atomic.set t.readers (Some r);
    r

type cone = { c_scratch : scratch; c_gen : int }

let scratch t =
  match t.scratch with
  | Some s -> s
  | None ->
    let n = Kernel.size t.prog and nranks = Kernel.n_ranks t.prog in
    let s =
      {
        s_mark = Bytes.make n '\000';
        s_slots = Array.make (nranks * Kernel.n_kinds) 0;
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
  let nk = Kernel.n_kinds and hd = Kernel.header in
  (* a gate's or outport's count slot, [rank * n_kinds + kind] (an
     unfused tuple: its own kind, its fanin as sources); -1 for a dff,
     -2 for an inport or constant (never on the frontier) *)
  let slot i =
    match comps.(i) with
    | Netlist.Dffc _ -> -1
    | Netlist.Inport _ | Netlist.Constant _ -> -2
    | c -> (levels.(i) * nk) + Kernel.plain_kind c
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
  let tuple kd = 1 + Kernel.arity.(kd) in
  for r = 0 to Array.length sc.s_desc - 1 do
    let len = ref hd in
    for kd = 0 to nk - 1 do
      len := !len + (counts.((r * nk) + kd) * tuple kd)
    done;
    Bytes.set sc.s_live r (if !len > hd then '\001' else '\000');
    if !len > hd then begin
      let d = room sc.s_desc.(r) (!len - 1) in
      sc.s_desc.(r) <- d;
      d.(0) <- k;
      let pos = ref hd in
      for kd = 0 to nk - 1 do
        let c = counts.((r * nk) + kd) in
        d.(kd + 1) <- c;
        counts.((r * nk) + kd) <- !pos;
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
      let d = sc.s_desc.(sl / nk) and p = counts.(sl) and fi = fanin.(i) in
      d.(p) <- i * k;
      for a = 0 to Array.length fi - 1 do
        d.(p + 1 + a) <- fi.(a) * k
      done;
      counts.(sl) <- p + 1 + Array.length fi
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

(* The closure walks breadth-first through the scratch queue, whose
   head then holds the members, already marked, for [build_cone].  A
   walk that passes the bound from several seeds walks again from the
   first alone, to mark it [wide] if it passes the bound by itself: a
   campaign offers the same first seeds request after request. *)
let fanout_cone t seeds =
  check_fusion "Slab.fanout_cone" t;
  Array.iter (check_comp "Slab.fanout_cone" t) seeds;
  let off, sink, wide = readers t and sc = scratch t in
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
        for e = off.(c) to off.(c + 1) - 1 do
          add sink.(e)
        done
      done
    with
    | () -> true
    | exception Exit ->
      clear ();
      false
  in
  if Array.exists (fun s -> Bytes.get wide s = '\001') seeds then None
  else if walk seeds then Some (build_cone t sc !len)
  else begin
    (* a failed walk had at least one seed *)
    if Array.length seeds = 1 || not (walk [| seeds.(0) |]) then
      Bytes.set wide seeds.(0) '\001'
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
   member ranks run with the force slots at [settle]'s boundaries. *)
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
  done

(* Latch every dff in the C stub: drivers are staged into [dff_next]
   first, so dff chains read pre-tick values. *)
let tick t =
  tick_block t.values t.dff_next t.dffs_s t.dff_src_s t.k;
  t.cycle <- t.cycle + 1

let step t =
  settle t;
  tick t

(* --- lane passes: which lanes differ from lane 0, which latch --- *)

(* Scaled slab bases of some components, checked once against the
   program they index, as [of_program] checks its own. *)
type sites = { sites_prog : Kernel.program; bases : int array }

let sites t a =
  let n = Kernel.size t.prog in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Slab.sites: site %d out of range [0, %d)" i n))
    a;
  { sites_prog = t.prog; bases = Array.map (fun i -> i * t.k) a }

external diff_block : int array -> int array -> int array -> unit = "hydra_diff_lanes"
[@@noalloc]

external latch_block : int array -> int array -> int array -> int array -> unit
  = "hydra_latch_lanes"
[@@noalloc]

let check_pass what t s out =
  if s.sites_prog != t.prog then
    invalid_arg (what ^ ": the sites were made for another circuit");
  if Array.length out <> t.k then
    invalid_arg
      (Printf.sprintf "%s: out has length %d, must be k = %d" what
         (Array.length out) t.k)

let diff_lanes t s out =
  check_pass "Slab.diff_lanes" t s out;
  diff_block t.values s.bases out

let latch_lanes t ~dffs ~srcs out =
  check_pass "Slab.latch_lanes" t dffs out;
  check_pass "Slab.latch_lanes" t srcs out;
  if Array.length srcs.bases <> Array.length dffs.bases then
    invalid_arg
      (Printf.sprintf "Slab.latch_lanes: srcs has %d sites, dffs has %d"
         (Array.length srcs.bases) (Array.length dffs.bases));
  latch_block t.values dffs.bases srcs.bases out

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

let engine kk : (module Engine_intf.S) =
  if kk < 1 then invalid_arg "Slab.engine: k must be >= 1";
  (module struct
    type nonrec t = t

    let name = Printf.sprintf "slab(k=%d)" kk

    let create nl = create ~k:kk nl

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
