(* Compile-time plumbing of the word-parallel engine: pre-pass,
   levelize, fusion planning and per-op index-array splitting.  See the
   interface for the contract; {!Slab} compiles through here at every K,
   so all widths agree on layout, fusion and force-slot placement. *)

module Netlist = Hydra_netlist.Netlist
module Levelize = Hydra_netlist.Levelize
module Layout = Hydra_netlist.Layout

type kernel = {
  inv_dst : int array;
  inv_src : int array;
  and_dst : int array;
  and_s0 : int array;
  and_s1 : int array;
  or_dst : int array;
  or_s0 : int array;
  or_s1 : int array;
  xor_dst : int array;
  xor_s0 : int array;
  xor_s1 : int array;
  andor_dst : int array;
  andor_a : int array;
  andor_b : int array;
  andor_c : int array;
  andor_d : int array;
  orand_dst : int array;
  orand_a : int array;
  orand_b : int array;
  orand_c : int array;
  xor3_dst : int array;
  xor3_a : int array;
  xor3_b : int array;
  xor3_c : int array;
  out_dst : int array;
  out_src : int array;
}

(* How the outer gate at [dst] absorbs a fanout-1 inner gate. *)
type fusion =
  | Andor of int * int * int * int
  | Orand of int * int * int
  | Xor3 of int * int * int

type program = {
  netlist : Netlist.t;
  levels : Levelize.t;
  ranks : kernel array;
  consts : (int * bool) array;
  dffs : int array;
  dff_src : int array;
  dff_init : bool array;
  fused : int;
  fusion : fusion option array;
  consumed : bool array;
  consumed_by : int array;
  k : int;
  input_index : (string, int) Hashtbl.t;
  output_index : (string, int) Hashtbl.t;
}

let n_ranks p = Array.length p.ranks

(* One rank's kernel: its gates and outports, split by kind.  Inports,
   constants and dffs settle outside the kernels; consumed inner gates
   are evaluated inside their outer fused kernel and never stored. *)
let build_kernel (nl : Netlist.t) (fusion : fusion option array)
    (consumed : bool array) rank =
  let invs = ref [] and ands = ref [] and ors = ref [] and xors = ref []
  and andors = ref [] and orands = ref [] and xor3s = ref []
  and outs = ref [] in
  Array.iter
    (fun i ->
      if not consumed.(i) then
        let fi = nl.Netlist.fanin.(i) in
        match fusion.(i) with
        | Some (Andor (a, b, c, d)) -> andors := (i, a, b, c, d) :: !andors
        | Some (Orand (a, b, c)) -> orands := (i, a, b, c) :: !orands
        | Some (Xor3 (a, b, c)) -> xor3s := (i, a, b, c) :: !xor3s
        | None -> (
            match nl.Netlist.components.(i) with
            | Netlist.Invc -> invs := (i, fi.(0)) :: !invs
            | Netlist.And2c -> ands := (i, fi.(0), fi.(1)) :: !ands
            | Netlist.Or2c -> ors := (i, fi.(0), fi.(1)) :: !ors
            | Netlist.Xor2c -> xors := (i, fi.(0), fi.(1)) :: !xors
            | Netlist.Outport _ -> outs := (i, fi.(0)) :: !outs
            | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> ()))
    rank;
  let arr1 l = Array.of_list (List.rev_map fst l)
  and arr2 l = Array.of_list (List.rev_map snd l) in
  let a3 sel l = Array.of_list (List.rev_map sel l) in
  {
    inv_dst = arr1 !invs;
    inv_src = arr2 !invs;
    and_dst = a3 (fun (i, _, _) -> i) !ands;
    and_s0 = a3 (fun (_, a, _) -> a) !ands;
    and_s1 = a3 (fun (_, _, b) -> b) !ands;
    or_dst = a3 (fun (i, _, _) -> i) !ors;
    or_s0 = a3 (fun (_, a, _) -> a) !ors;
    or_s1 = a3 (fun (_, _, b) -> b) !ors;
    xor_dst = a3 (fun (i, _, _) -> i) !xors;
    xor_s0 = a3 (fun (_, a, _) -> a) !xors;
    xor_s1 = a3 (fun (_, _, b) -> b) !xors;
    andor_dst = a3 (fun (i, _, _, _, _) -> i) !andors;
    andor_a = a3 (fun (_, a, _, _, _) -> a) !andors;
    andor_b = a3 (fun (_, _, b, _, _) -> b) !andors;
    andor_c = a3 (fun (_, _, _, c, _) -> c) !andors;
    andor_d = a3 (fun (_, _, _, _, d) -> d) !andors;
    orand_dst = a3 (fun (i, _, _, _) -> i) !orands;
    orand_a = a3 (fun (_, a, _, _) -> a) !orands;
    orand_b = a3 (fun (_, _, b, _) -> b) !orands;
    orand_c = a3 (fun (_, _, _, c) -> c) !orands;
    xor3_dst = a3 (fun (i, _, _, _) -> i) !xor3s;
    xor3_a = a3 (fun (_, a, _, _) -> a) !xor3s;
    xor3_b = a3 (fun (_, _, b, _) -> b) !xor3s;
    xor3_c = a3 (fun (_, _, _, c) -> c) !xor3s;
    out_dst = arr1 !outs;
    out_src = arr2 !outs;
  }

(* Decide which fanout-1 inner gates each or/xor absorbs.  Processed rank
   by rank, ascending, so an inner candidate's own fusion status is final
   when its sink is examined: a gate that already absorbed something
   ([fusion.(x) <> None]) is not consumable — consuming it would discard
   its kernel and leave its (possibly consumed) sources dangling.  The
   sources of a consumed gate are therefore always materialized. *)
let plan_fusion (nl : Netlist.t) (levels : Levelize.t) =
  let n = Netlist.size nl in
  let fanout_count = Array.make n 0 in
  Array.iter
    (fun fi ->
      Array.iter (fun d -> fanout_count.(d) <- fanout_count.(d) + 1) fi)
    nl.Netlist.fanin;
  let fusion : fusion option array = Array.make n None in
  let consumed = Array.make n false in
  let consumed_by = Array.make n (-1) in
  let inner kind x =
    fanout_count.(x) = 1
    && (not consumed.(x))
    && fusion.(x) = None
    &&
    match (kind, nl.Netlist.components.(x)) with
    | `And, Netlist.And2c -> true
    | `Xor, Netlist.Xor2c -> true
    | _ -> false
  in
  Array.iter
    (fun rank ->
      Array.iter
        (fun i ->
          let fi = nl.Netlist.fanin.(i) in
          match nl.Netlist.components.(i) with
          | Netlist.Or2c ->
            let x = fi.(0) and y = fi.(1) in
            if inner `And x && inner `And y then begin
              let fx = nl.Netlist.fanin.(x) and fy = nl.Netlist.fanin.(y) in
              fusion.(i) <- Some (Andor (fx.(0), fx.(1), fy.(0), fy.(1)));
              consumed.(x) <- true;
              consumed_by.(x) <- i;
              consumed.(y) <- true;
              consumed_by.(y) <- i
            end
            else if inner `And x then begin
              let fx = nl.Netlist.fanin.(x) in
              fusion.(i) <- Some (Orand (fx.(0), fx.(1), y));
              consumed.(x) <- true;
              consumed_by.(x) <- i
            end
            else if inner `And y then begin
              let fy = nl.Netlist.fanin.(y) in
              fusion.(i) <- Some (Orand (fy.(0), fy.(1), x));
              consumed.(y) <- true;
              consumed_by.(y) <- i
            end
          | Netlist.Xor2c ->
            let x = fi.(0) and y = fi.(1) in
            if inner `Xor x then begin
              let fx = nl.Netlist.fanin.(x) in
              fusion.(i) <- Some (Xor3 (fx.(0), fx.(1), y));
              consumed.(x) <- true;
              consumed_by.(x) <- i
            end
            else if inner `Xor y then begin
              let fy = nl.Netlist.fanin.(y) in
              fusion.(i) <- Some (Xor3 (fy.(0), fy.(1), x));
              consumed.(y) <- true;
              consumed_by.(y) <- i
            end
          | _ -> ())
        rank)
    levels.Levelize.by_level;
  (fusion, consumed, consumed_by)

let compile ?(optimize = false) ?(relayout = true) ?(fuse = true)
    ?(certify = false) ?(k = 1) netlist =
  (* [?certify] translation-validates each pre-pass run
     ({!Hydra_analyze.Certify}): packed-random I/O equivalence for the
     optimizer's rewrites, a complete permutation proof for the
     re-layout. *)
  let netlist =
    if optimize then begin
      let post = Hydra_netlist.Optimize.optimize netlist in
      if certify then
        Hydra_analyze.Certify.(
          ensure (check ~transform:"Optimize.optimize" ~pre:netlist ~post ()));
      post
    end
    else netlist
  in
  let netlist =
    if relayout then begin
      let post, perm = Layout.rank_major_permutation netlist in
      if certify then
        Hydra_analyze.Certify.(
          ensure
            (check_permutation ~transform:"Layout.rank_major" ~pre:netlist
               ~post ~perm));
      post
    end
    else netlist
  in
  if k < 1 then invalid_arg "Kernel.compile: ~k must be >= 1";
  let levels = Levelize.check netlist in
  let n = Netlist.size netlist in
  let fusion, consumed, consumed_by =
    if fuse then plan_fusion netlist levels
    else (Array.make n None, Array.make n false, Array.make n (-1))
  in
  let ranks = Array.map (build_kernel netlist fusion consumed) levels.Levelize.by_level in
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
  let fused = Array.fold_left (fun a c -> if c then a + 1 else a) 0 consumed in
  {
    netlist;
    levels;
    ranks;
    consts = Array.of_list (List.rev !consts);
    dffs;
    dff_src;
    dff_init;
    fused;
    fusion;
    consumed;
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

(* Re-levelize after a small edit: recompute levels only along paths
   reachable from the edited sites, by chaotic iteration to the unique
   fixpoint (the level equations on an acyclic graph have exactly one
   solution).  If levels refuse to settle — the edit plausibly closed a
   combinational cycle — defer to the full algorithm, which either
   raises the proper [Combinational_cycle] witness or supplies exact
   levels.  Returns the rebuilt {!Levelize.t} plus a per-component
   changed flag; [by_level] ranks list members in index order, a valid
   (and behaviorally equivalent) alternative to the full algorithm's
   queue order.  The fanout is built only once a level moves: an edit
   that keeps every edited site's fanin moves none. *)
let relevel (nl : Netlist.t) (old : Levelize.t) ~seeds =
  let n = Netlist.size nl in
  let levels = Array.copy old.Levelize.levels in
  let fanout = lazy (Netlist.fanout nl) in
  let is_source i =
    match nl.Netlist.components.(i) with
    | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> true
    | _ -> false
  in
  let level_of i =
    1 + Array.fold_left (fun a d -> max a levels.(d)) (-1) nl.Netlist.fanin.(i)
  in
  let changed = Array.make n false in
  let q = Queue.create () in
  let inq = Array.make n false in
  let updates = ref 0 in
  let budget = (4 * n) + 16 in
  let push i =
    if not (inq.(i) || is_source i) then begin
      inq.(i) <- true;
      Queue.add i q
    end
  in
  List.iter push seeds;
  (try
     while not (Queue.is_empty q) do
       let i = Queue.pop q in
       inq.(i) <- false;
       let l = level_of i in
       if l <> levels.(i) then begin
         incr updates;
         if !updates > budget then raise Exit;
         levels.(i) <- l;
         changed.(i) <- true;
         let { Netlist.off; sink; _ } = Lazy.force fanout in
         for e = off.(i) to off.(i + 1) - 1 do
           match nl.Netlist.components.(sink.(e)) with
           | Netlist.Dffc _ -> ()
           | _ -> push sink.(e)
         done
       end
     done
   with Exit ->
     let full = Levelize.check nl in
     Array.iteri
       (fun i l ->
         if levels.(i) <> l then changed.(i) <- true;
         levels.(i) <- l)
       full.Levelize.levels);
  let max_level = Array.fold_left max 0 levels in
  let buckets = Array.make (max_level + 1) [] in
  for i = n - 1 downto 0 do
    if not (is_source i) then buckets.(levels.(i)) <- i :: buckets.(levels.(i))
  done;
  let by_level = Array.map Array.of_list buckets in
  let order = Array.concat (Array.to_list by_level) in
  let critical = ref 0 in
  for i = 0 to n - 1 do
    match nl.Netlist.components.(i) with
    | Netlist.Outport _ | Netlist.Dffc _ ->
      Array.iter
        (fun drv -> if levels.(drv) > !critical then critical := levels.(drv))
        nl.Netlist.fanin.(i)
    | _ -> ()
  done;
  ( { Levelize.levels; order; by_level; critical_path = !critical; cyclic = [] },
    changed )

let kinds kn =
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

(* [kn]'s entries whose destination satisfies [keep], then [fresh]'s. *)
let splice kn ~keep fresh =
  let kind (_, dst, srcs) (_, fdst, fsrcs) =
    let idx = List.filter (fun j -> keep dst.(j)) (List.init (Array.length dst) Fun.id) in
    let pick a fa = Array.append (Array.of_list (List.map (Array.get a) idx)) fa in
    (pick dst fdst, Array.map2 pick srcs fsrcs)
  in
  match Array.map2 kind (kinds kn) (kinds fresh) with
  | [| (inv_dst, [| inv_src |]); (and_dst, [| and_s0; and_s1 |]);
       (or_dst, [| or_s0; or_s1 |]); (xor_dst, [| xor_s0; xor_s1 |]);
       (andor_dst, [| andor_a; andor_b; andor_c; andor_d |]);
       (orand_dst, [| orand_a; orand_b; orand_c |]);
       (xor3_dst, [| xor3_a; xor3_b; xor3_c |]); (out_dst, [| out_src |]) |] ->
    { inv_dst; inv_src; and_dst; and_s0; and_s1; or_dst; or_s0; or_s1;
      xor_dst; xor_s0; xor_s1; andor_dst; andor_a; andor_b; andor_c; andor_d;
      orand_dst; orand_a; orand_b; orand_c; xor3_dst; xor3_a; xor3_b; xor3_c;
      out_dst; out_src }
  | _ -> assert false

let entries kn = Array.fold_left (fun n (_, dst, _) -> n + Array.length dst) 0 (kinds kn)

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
  let levels', level_changed = relevel nl' p.levels ~seeds:edited in
  (* Fusion repair: an edited site invalidates any fusion it participates
     in.  If the edit turned the site into (or away from) something a
     fused outer absorbed, or gave a consumed inner a second reader, the
     outer's kernel would compute a stale function — so un-fuse: the
     outer falls back to its plain kernel and every inner it absorbed is
     materialized again.  Patching never *adds* fusion; a full recompile
     re-fuses. *)
  let fusion' = Array.copy p.fusion in
  let consumed' = Array.copy p.consumed in
  let consumed_by' = Array.copy p.consumed_by in
  let dirty = Array.make n false in
  let defused = ref 0 in
  let outer_inners =
    lazy
      (let acc = Array.make n [] in
       Array.iteri (fun i o -> if o >= 0 then acc.(o) <- i :: acc.(o))
         p.consumed_by;
       acc)
  in
  let defuse o =
    match fusion'.(o) with
    | None -> ()
    | Some _ ->
      fusion'.(o) <- None;
      incr defused;
      dirty.(o) <- true;
      List.iter
        (fun i ->
          if consumed_by'.(i) = o then begin
            consumed'.(i) <- false;
            consumed_by'.(i) <- -1;
            dirty.(i) <- true
          end)
        (Lazy.force outer_inners).(o)
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
     and its new rank (membership or kernel content changed there); all
     other ranks reuse their kernels by reference.  A rebuilt rank keeps
     the entries of its clean members and compiles only its dirty ones:
     a clean member's entry cannot have changed (its kind, fanin, rank
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
            build_kernel nl' fusion' consumed'
              (Array.of_seq (Seq.filter (Array.get dirty) (Array.to_seq members)))
          in
          incr ranks_rebuilt;
          recompiled := !recompiled + entries fresh;
          if r < nranks_old then
            splice p.ranks.(r) ~keep:(fun i -> not dirty.(i)) fresh
          else fresh
        end)
  in
  let fused' =
    Array.fold_left (fun a c -> if c then a + 1 else a) 0 consumed'
  in
  ( {
      p with
      netlist = nl';
      levels = levels';
      ranks;
      fused = fused';
      fusion = fusion';
      consumed = consumed';
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
