(* Compile-time plumbing of the word-parallel engine: the re-layout,
   fusion planning and one flat descriptor per rank, over the ranks
   {!Levelize} computes (once per compile; {!Levelize.relevel} for a
   patch).  See the interface for the contract and the descriptor
   layout; {!Slab} compiles through here at every K, so all widths agree
   on layout, fusion and force-slot placement. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module Layout = Hydra_netlist.Layout

type program = {
  netlist : Netlist.t;
  levels : Levelize.t;
  ranks : int array array;
  consts : (int * bool) array;
  dffs : int array;
  dff_src : int array;
  dff_init : bool array;
  fused : int;
  consumed_by : int array;
  k : int;
  input_index : (string, int) Hashtbl.t;
  output_index : (string, int) Hashtbl.t;
}

let n_ranks p = Array.length p.ranks

(* The rank descriptor (see the interface for the layout). *)
let kind_names = [| "inv"; "and"; "or"; "xor"; "andor"; "orand"; "xor3"; "out" |]
let arity = [| 1; 2; 2; 2; 4; 3; 3; 1 |]
let n_kinds = Array.length kind_names
let header = 1 + n_kinds

(* indices into [kind_names] *)
let inv = 0 and and2 = 1 and or2 = 2 and xor2 = 3
let andor = 4 and orand = 5 and xor3 = 6 and out = 7

let plain_kind = function
  | Netlist.Invc -> inv
  | Netlist.And2c -> and2
  | Netlist.Or2c -> or2
  | Netlist.Xor2c -> xor2
  | Netlist.Outport _ -> out
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> -1

(* The kind of [i]'s tuple, -1 if it has none: a source, or an inner
   gate evaluated inside its outer's tuple.  An outer's kind follows
   from which of its inputs it consumed, by [plan_fusion]'s rules. *)
let kind_of (nl : Netlist.t) consumed_by i =
  let c = nl.Netlist.components.(i) in
  if consumed_by.(i) >= 0 then -1
  else
    match c with
    | Netlist.Or2c | Netlist.Xor2c ->
      let fi = nl.Netlist.fanin.(i) in
      let x = consumed_by.(fi.(0)) = i and y = consumed_by.(fi.(1)) = i in
      if not (x || y) then plain_kind c
      else if c = Netlist.Xor2c then xor3
      else if x && y then andor
      else orand
    | _ -> plain_kind c

(* Write [i]'s tuple of kind [kind] at [pos]: the destination, then
   either its fanin or, for a fused outer, the consumed inners' sources
   and (orand, xor3) the other input. *)
let write_tuple (nl : Netlist.t) consumed_by d pos i kind =
  let fi = nl.Netlist.fanin.(i) in
  d.(pos) <- i;
  if kind = andor then begin
    Array.blit nl.Netlist.fanin.(fi.(0)) 0 d (pos + 1) 2;
    Array.blit nl.Netlist.fanin.(fi.(1)) 0 d (pos + 3) 2
  end
  else if kind = orand || kind = xor3 then begin
    let x, y = if consumed_by.(fi.(0)) = i then (fi.(0), fi.(1)) else (fi.(1), fi.(0)) in
    Array.blit nl.Netlist.fanin.(x) 0 d (pos + 1) 2;
    d.(pos + 3) <- y
  end
  else Array.blit fi 0 d (pos + 1) arity.(kind)

(* The descriptor of the tuples of [members], kind by kind, each kind in
   member order: one pass counts, one fills. *)
let descriptor (nl : Netlist.t) consumed_by members =
  let counts = Array.make n_kinds 0 in
  Array.iter
    (fun i ->
      let kd = kind_of nl consumed_by i in
      if kd >= 0 then counts.(kd) <- counts.(kd) + 1)
    members;
  let cursor = Array.make n_kinds 0 and len = ref header in
  for kd = 0 to n_kinds - 1 do
    cursor.(kd) <- !len;
    len := !len + (counts.(kd) * (1 + arity.(kd)))
  done;
  let d = Array.make !len 0 in
  Array.blit counts 0 d 1 n_kinds;
  Array.iter
    (fun i ->
      let kd = kind_of nl consumed_by i in
      if kd >= 0 then begin
        write_tuple nl consumed_by d cursor.(kd) i kd;
        cursor.(kd) <- cursor.(kd) + 1 + arity.(kd)
      end)
    members;
  d

let count_fused consumed_by =
  Array.fold_left (fun a o -> if o >= 0 then a + 1 else a) 0 consumed_by

(* Decide which fanout-1 inner gates each or/xor absorbs: an or both
   and-inputs it can (andor) or one (orand), a xor its first xor-input
   it can, else its second (xor3).  Processed rank by rank, ascending,
   so an inner candidate's own fusion status is final when its sink is
   examined: a gate that already absorbed something is not consumable —
   consuming it would discard its tuple and leave its (possibly
   consumed) sources dangling.  The sources of a consumed gate are
   therefore always materialized. *)
let plan_fusion (nl : Netlist.t) (levels : Levelize.t) =
  let n = Netlist.size nl in
  let fanout_count = Array.make n 0 in
  Array.iter
    (fun fi ->
      Array.iter (fun d -> fanout_count.(d) <- fanout_count.(d) + 1) fi)
    nl.Netlist.fanin;
  let consumed_by = Array.make n (-1) in
  let inner c x =
    nl.Netlist.components.(x) = c
    && fanout_count.(x) = 1
    && consumed_by.(x) < 0
    && not (Array.exists (fun s -> consumed_by.(s) = x) nl.Netlist.fanin.(x))
  in
  Array.iter
    (fun rank ->
      Array.iter
        (fun i ->
          let fi = nl.Netlist.fanin.(i) in
          match nl.Netlist.components.(i) with
          | Netlist.Or2c ->
            let x = fi.(0) and y = fi.(1) in
            if inner Netlist.And2c x then consumed_by.(x) <- i;
            if inner Netlist.And2c y then consumed_by.(y) <- i
          | Netlist.Xor2c ->
            let x = fi.(0) and y = fi.(1) in
            if inner Netlist.Xor2c x then consumed_by.(x) <- i
            else if inner Netlist.Xor2c y then consumed_by.(y) <- i
          | _ -> ())
        rank)
    levels.Levelize.by_level;
  consumed_by

let compile ?(relayout = true) ?(fuse = true) ?(k = 1) netlist =
  if k < 1 then invalid_arg "Kernel.compile: ~k must be >= 1";
  let levels = Levelize.check netlist in
  (* the re-layout reads the memoized [levels]; its ranks are those
     levels scattered through the permutation *)
  let netlist, levels =
    if relayout then begin
      let post, perm = Layout.rank_major_permutation netlist in
      let lv = Array.make (Array.length perm) 0 in
      Array.iteri (fun i l -> lv.(perm.(i)) <- l) levels.Levelize.levels;
      (post, Levelize.of_levels post lv ~cyclic:[])
    end
    else (netlist, levels)
  in
  let n = Netlist.size netlist in
  let consumed_by =
    if fuse then plan_fusion netlist levels else Array.make n (-1)
  in
  let ranks = Array.map (descriptor netlist consumed_by) levels.Levelize.by_level in
  let consts = ref [] and dffs = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Constant b -> consts := (i, b) :: !consts
      | Netlist.Dffc _ -> dffs := i :: !dffs
      | _ -> ())
    netlist.Netlist.components;
  let dffs = Array.of_list (List.rev !dffs) in
  let dff_src = Array.map (fun i -> netlist.Netlist.fanin.(i).(0)) dffs in
  let dff_init =
    Array.map
      (fun i ->
        match netlist.Netlist.components.(i) with
        | Netlist.Dffc b -> b
        | _ -> assert false)
      dffs
  in
  let input_index = Hashtbl.create 16 and output_index = Hashtbl.create 16 in
  List.iter (fun (s, i) -> Hashtbl.replace input_index s i) netlist.Netlist.inputs;
  List.iter (fun (s, i) -> Hashtbl.replace output_index s i) netlist.Netlist.outputs;
  let fused = count_fused consumed_by in
  {
    netlist;
    levels;
    ranks;
    consts = Array.of_list (List.rev !consts);
    dffs;
    dff_src;
    dff_init;
    fused;
    consumed_by;
    k;
    input_index;
    output_index;
  }

let size p = Netlist.size p.netlist

let n_force_slots p = n_ranks p + 1

let force_slot ~what p site =
  let n = size p in
  if site < 0 || site >= n then
    invalid_arg
      (Printf.sprintf "%s: force site %d out of range (netlist has %d components)"
         what site n);
  match p.netlist.Netlist.components.(site) with
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> 0
  | Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c
  | Netlist.Outport _ ->
    p.levels.Levelize.levels.(site) + 1

(* Incremental recompilation ------------------------------------------- *)

(* [old]'s tuples whose destination satisfies [keep], then [fresh]'s,
   kind by kind. *)
let splice old ~keep fresh =
  let d = Array.make (Array.length old + Array.length fresh - header) 0 in
  let o = ref header and f = ref header and w = ref header in
  for kd = 0 to n_kinds - 1 do
    let t = 1 + arity.(kd) and w0 = !w in
    for _ = 1 to old.(kd + 1) do
      if keep old.(!o) then begin
        Array.blit old !o d !w t;
        w := !w + t
      end;
      o := !o + t
    done;
    let m = fresh.(kd + 1) * t in
    Array.blit fresh !f d !w m;
    f := !f + m;
    w := !w + m;
    d.(kd + 1) <- (!w - w0) / t
  done;
  Array.sub d 0 !w

let entries d = Array.fold_left ( + ) 0 (Array.sub d 1 n_kinds)

type patch_stats = {
  p_edited : int;
  p_defused : int;
  p_ranks_rebuilt : int;
  p_ranks_total : int;
  p_comps_recompiled : int;
  p_comps_total : int;
}

let patch (p : program) (nl' : Netlist.t) ~edited =
  let nl = p.netlist in
  let n = Netlist.size nl in
  if Netlist.size nl' <> n then
    invalid_arg
      (Printf.sprintf
         "Kernel.patch: edited netlist has %d components, program has %d"
         (Netlist.size nl') n);
  (match Netlist.validate nl' with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Kernel.patch: " ^ msg));
  let edited = List.sort_uniq compare edited in
  let in_edit = Array.make n false in
  List.iter
    (fun e ->
      if e < 0 || e >= n then
        invalid_arg
          (Printf.sprintf "Kernel.patch: edited site %d out of range" e);
      (match (nl.Netlist.components.(e), nl'.Netlist.components.(e)) with
      | ( (Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c),
          (Netlist.Invc | Netlist.And2c | Netlist.Or2c | Netlist.Xor2c) ) -> ()
      | _ ->
        invalid_arg
          (Printf.sprintf
             "Kernel.patch: site %d is not a combinational gate on both \
              sides (%s -> %s); only gate edits can be patched"
             e
             (Netlist.component_name nl.Netlist.components.(e))
             (Netlist.component_name nl'.Netlist.components.(e))));
      in_edit.(e) <- true)
    edited;
  (* physical equality first: an edit copies the component array and
     shares every fanin array it does not touch *)
  let same_fanin a b =
    a == b
    || Array.length a = Array.length b
       && (let rec go j = j < 0 || (a.(j) = b.(j) && go (j - 1)) in
           go (Array.length a - 1))
  in
  Array.iteri
    (fun i c ->
      let c' = nl'.Netlist.components.(i) in
      if
        (not in_edit.(i))
        && ((c != c' && c <> c')
           || not (same_fanin nl.Netlist.fanin.(i) nl'.Netlist.fanin.(i)))
      then
        invalid_arg
          (Printf.sprintf
             "Kernel.patch: component %d differs but is not listed in ~edited"
             i))
    nl.Netlist.components;
  let levels', level_changed = Levelize.relevel nl' p.levels ~seeds:edited in
  (* Fusion repair: an edited site invalidates any fusion it participates
     in.  If the edit turned the site into (or away from) something a
     fused outer absorbed, or gave a consumed inner a second reader, the
     outer's tuple would compute a stale function — so un-fuse: the
     outer falls back to its plain tuple and every inner it absorbed is
     materialized again.  Patching never *adds* fusion; a full recompile
     re-fuses.  An outer's inners are among its fanin in [nl]: they
     were at compile time, and a patch releases every inner of an
     outer whose fanin it changes. *)
  let consumed_by' = Array.copy p.consumed_by in
  let dirty = Array.make n false in
  let defused = ref 0 in
  let defuse o =
    let fi = nl.Netlist.fanin.(o) in
    if Array.exists (fun i -> consumed_by'.(i) = o) fi then begin
      incr defused;
      dirty.(o) <- true;
      Array.iter
        (fun i ->
          if consumed_by'.(i) = o then begin
            consumed_by'.(i) <- -1;
            dirty.(i) <- true
          end)
        fi
    end
  in
  List.iter
    (fun e ->
      dirty.(e) <- true;
      let o = consumed_by'.(e) in
      if o >= 0 then defuse o;
      defuse e;
      Array.iter
        (fun s ->
          let o = consumed_by'.(s) in
          if o >= 0 then defuse o)
        nl'.Netlist.fanin.(e))
    edited;
  Array.iteri (fun i c -> if c then dirty.(i) <- true) level_changed;
  (* Ranks needing a rebuild: every dirty component taints both its old
     and its new rank (membership or tuples changed there); all other
     ranks reuse their descriptors by reference.  A rebuilt rank keeps
     the tuples of its clean members and compiles only its dirty ones:
     a clean member's tuple cannot have changed (its kind, fanin, rank
     and fusion are untouched, and a source whose materialization
     flipped implies a dirty reader), and every member of a new rank
     moved there, so is dirty. *)
  let nranks_old = n_ranks p in
  let nranks' = Array.length levels'.Levelize.by_level in
  let dirty_rank = Array.make (max nranks_old nranks') false in
  Array.iteri
    (fun i d ->
      if d then begin
        let old_l = p.levels.Levelize.levels.(i)
        and new_l = levels'.Levelize.levels.(i) in
        if old_l >= 0 then dirty_rank.(old_l) <- true;
        if new_l >= 0 then dirty_rank.(new_l) <- true
      end)
    dirty;
  let recompiled = ref 0 and ranks_rebuilt = ref 0 in
  let ranks =
    Array.init nranks' (fun r ->
        if r < nranks_old && not dirty_rank.(r) then p.ranks.(r)
        else begin
          let members = levels'.Levelize.by_level.(r) in
          let fresh =
            descriptor nl' consumed_by'
              (Array.of_seq (Seq.filter (Array.get dirty) (Array.to_seq members)))
          in
          incr ranks_rebuilt;
          recompiled := !recompiled + entries fresh;
          if r < nranks_old then
            splice p.ranks.(r) ~keep:(fun i -> not dirty.(i)) fresh
          else fresh
        end)
  in
  ( {
      p with
      netlist = nl';
      levels = levels';
      ranks;
      fused = count_fused consumed_by';
      consumed_by = consumed_by';
    },
    {
      p_edited = List.length edited;
      p_defused = !defused;
      p_ranks_rebuilt = !ranks_rebuilt;
      p_ranks_total = nranks';
      p_comps_recompiled = !recompiled;
      p_comps_total = n;
    } )
