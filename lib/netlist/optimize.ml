(* Netlist optimization: constant folding, structural deduplication and
   dead-component elimination.

   A light logic-synthesis pass over the extracted netlist.  The paper's
   specifications deliberately describe structure ("it is poor design
   style to force the wrong component to do a job"), but generic patterns
   instantiated at concrete sizes often leave constants (e.g. a ripple
   adder's zero carry-in) and duplicated subterms; this pass cleans them
   up while provably preserving behaviour (the test suite checks
   optimized-vs-original equivalence on random circuits).

   Passes, iterated to a fixed point:
   - constant folding: a gate with constant inputs becomes a constant;
     and2(x,1) = x and friends become aliases,
   - structural dedup: two gates of the same kind with the same drivers
     are merged,
   - inverter pairs: inv(inv(x)) becomes x,
   - dead elimination: components that reach no output and no dff that
     itself reaches an output are dropped. *)

type alias = Self | To of int | Const of bool

(* Internally an alias map is an int array, [target.(i)] being [self],
   [cfalse], [ctrue] or the index of the component [i] is aliased to, and
   a resolved driver is an int too: a component index or one of the two
   constant codes. *)
let self = -1
let cfalse = -2
let ctrue = -3
let of_bool b = if b then ctrue else cfalse

(* [resolve nl target i]: the canonical driver of [i], following alias
   chains with path compression.  A chain longer than the netlist is a
   [To] loop and raises rather than spinning. *)
let resolve (nl : Netlist.t) target =
  let n = Array.length target in
  let rec go fuel i =
    if fuel < 0 then invalid_arg "Optimize: alias cycle"
    else
      let t = target.(i) in
      if t = self then
        match nl.Netlist.components.(i) with
        | Netlist.Constant b -> of_bool b
        | _ -> i
      else if t < 0 then t
      else
        let r = go (fuel - 1) t in
        if r >= 0 && r <> t then target.(i) <- r;
        r
  in
  go n

(* Dedup keys: [(tag * r + a) * r + b], with tags 0..4 for const, inv,
   and, or, xor, [r = n + 1] and [a, b < r], is one int per (tag, a, b),
   collision-free while [5 * r * r] fits an int: up to about 9.6e8
   components on a 64-bit host, 1.4e4 on a 32-bit one. *)
let fold_and_dedup (nl : Netlist.t) =
  let n = Netlist.size nl in
  let r = n + 1 in
  if r > max_int / 5 / r then
    invalid_arg
      (Printf.sprintf "Optimize: %d components overflow the dedup key" n);
  let key tag a b = (((tag * r) + a) * r) + b in
  let target = Array.make n self in
  let resolve = resolve nl target in
  let dedup = Int_table.create n in
  let changed = ref false in
  let set i t =
    target.(i) <- t;
    changed := true
  in
  (* the first gate with a key stays, later ones become aliases of it *)
  let share i k =
    let j = Int_table.find_or_add dedup k i in
    if j >= 0 then set i j
  in
  (* a two-input gate over drivers [x], [y]; [unit] and [absorb] are its
     identity and absorbing constants *)
  let fold i x y ~unit ~absorb ~tag =
    if x = absorb || y = absorb then set i absorb
    else if x = unit && y = unit then set i unit
    else if x = unit then set i y
    else if y = unit then set i x
    else if x = y then set i x
    else share i (key tag (min x y) (max x y))
  in
  (* process in topological-ish order: index order works because the
     extraction emits children first except across feedback, where dffs
     stop folding anyway *)
  for i = 0 to n - 1 do
    let fi = nl.Netlist.fanin.(i) in
    match nl.Netlist.components.(i) with
    | Netlist.Constant b ->
      (* canonicalize multiple constants *)
      share i (key 0 (Bool.to_int b) 0)
    | Netlist.Invc ->
      let d = resolve fi.(0) in
      if d < 0 then set i (of_bool (d = cfalse))
      else
        (* inv (inv x) = x *)
        let x =
          match nl.Netlist.components.(d) with
          | Netlist.Invc -> resolve nl.Netlist.fanin.(d).(0)
          | _ -> -1
        in
        if x >= 0 then set i x else share i (key 1 d 0)
    | (Netlist.And2c | Netlist.Or2c | Netlist.Xor2c) as comp -> (
        let x = resolve fi.(0) and y = resolve fi.(1) in
        match comp with
        | Netlist.And2c -> fold i x y ~unit:ctrue ~absorb:cfalse ~tag:2
        | Netlist.Or2c -> fold i x y ~unit:cfalse ~absorb:ctrue ~tag:3
        | _ ->
          if x < 0 && y < 0 then set i (of_bool (x <> y))
          else if x = cfalse then set i y
          else if y = cfalse then set i x
          (* xor with constant one is an inverter, left as it is *)
          else if x < 0 || y < 0 then ()
          else if x = y then set i cfalse
          else share i (key 4 (min x y) (max x y)))
    | Netlist.Inport _ | Netlist.Outport _ | Netlist.Dffc _ -> ()
  done;
  (resolve, !changed)

(* Rebuild a netlist applying a resolver and dropping dead components. *)
let rebuild (nl : Netlist.t) resolve =
  let n = Netlist.size nl in
  (* fresh constant components for constant drivers, at indices 0/1 *)
  let need_const = [| false; false |] in
  let canonical i =
    let j = resolve i in
    if j < 0 then need_const.(Bool.to_int (j = ctrue)) <- true;
    j
  in
  (* mark live from outputs, walking canonical drivers; every component
     is pushed at most once *)
  let live = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let push d =
    let j = canonical d in
    if j >= 0 && not live.(j) then begin
      live.(j) <- true;
      stack.(!sp) <- j;
      incr sp
    end
  in
  List.iter (fun (_, i) -> live.(i) <- true) nl.Netlist.outputs;
  List.iter (fun (_, i) -> Array.iter push nl.Netlist.fanin.(i)) nl.Netlist.outputs;
  while !sp > 0 do
    decr sp;
    Array.iter push nl.Netlist.fanin.(stack.(!sp))
  done;
  (* keep declared inputs *)
  List.iter (fun (_, i) -> live.(i) <- true) nl.Netlist.inputs;
  (* assign new indices *)
  let remap = Array.make n (-1) in
  let const_idx = [| -1; -1 |] in
  let count = ref 0 in
  for b = 0 to 1 do
    if need_const.(b) then begin
      const_idx.(b) <- !count;
      incr count
    end
  done;
  for i = 0 to n - 1 do
    if live.(i) then begin
      remap.(i) <- !count;
      incr count
    end
  done;
  let total = !count in
  let components = Array.make total (Netlist.Constant false) in
  let fanin = Array.make total [||] in
  let names = Array.make total [] in
  for b = 0 to 1 do
    if const_idx.(b) >= 0 then components.(const_idx.(b)) <- Netlist.Constant (b = 1)
  done;
  let tr i =
    let j = canonical i in
    if j >= 0 then remap.(j) else const_idx.(Bool.to_int (j = ctrue))
  in
  for i = 0 to n - 1 do
    if live.(i) then begin
      let idx = remap.(i) in
      components.(idx) <- nl.Netlist.components.(i);
      names.(idx) <- nl.Netlist.names.(i);
      fanin.(idx) <- Array.map tr nl.Netlist.fanin.(i)
    end
  done;
  {
    Netlist.components;
    fanin;
    names;
    inputs = List.map (fun (s, i) -> (s, remap.(i))) nl.Netlist.inputs;
    outputs = List.map (fun (s, i) -> (s, remap.(i))) nl.Netlist.outputs;
  }

(* Public alias application: the rebuild machinery above, driven by a
   caller-supplied alias map instead of fold_and_dedup's.  This is the
   netlist-layer half of Hydra_analyze.Sweep: the analysis computes which
   components are constant / duplicated / invisible, this function does
   the (behaviour-affecting, therefore Certify-checked) surgery.  Alias
   chains are followed with path compression; a [To] loop in a
   hand-built map is a caller bug and raises rather than spinning. *)
let apply_aliases (nl : Netlist.t) (alias : alias array) =
  let n = Netlist.size nl in
  if Array.length alias <> n then
    invalid_arg
      (Printf.sprintf
         "Optimize.apply_aliases: %d aliases for %d components"
         (Array.length alias) n);
  List.iter
    (fun (name, i) ->
      if alias.(i) <> Self then
        invalid_arg ("Optimize.apply_aliases: port component " ^ name ^ " is aliased"))
    (nl.Netlist.inputs @ nl.Netlist.outputs);
  let target =
    Array.map (function Self -> self | Const b -> of_bool b | To j -> j) alias
  in
  rebuild nl (resolve nl target)

let once nl =
  let resolve, changed = fold_and_dedup nl in
  (rebuild nl resolve, changed)

(* Iterate to a fixed point (size strictly decreases or aliasing stops). *)
let optimize ?(max_rounds = 20) nl =
  let rec go nl rounds =
    if rounds = 0 then nl
    else
      let nl', changed = once nl in
      if (not changed) && Netlist.size nl' >= Netlist.size nl then nl'
      else go nl' (rounds - 1)
  in
  go nl max_rounds
