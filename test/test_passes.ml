(* The compile passes on int keys: [Layout.rank_major_permutation],
   [Optimize] and [Netlist.digest] against the tuple-, string- and
   list-based implementations they replaced, kept here as references the
   rewrites must match exactly; the digests of catalogue circuits pinned;
   and [Optimize.once]'s flag on a dedup-only netlist. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module L = Hydra_netlist.Levelize
module Layout = Hydra_netlist.Layout
module O = Hydra_netlist.Optimize

(* References ------------------------------------------------------------ *)

let kind_order = function
  | N.Invc -> 0
  | N.And2c -> 1
  | N.Or2c -> 2
  | N.Xor2c -> 3
  | N.Outport _ -> 4
  | N.Inport _ | N.Constant _ | N.Dffc _ -> 5

(* Each rank sorted by polymorphic [compare] on a (kind, s0, s1, index)
   tuple built per comparison. *)
let reference_rank_major_permutation (nl : N.t) =
  let n = N.size nl in
  let lv = L.of_netlist nl in
  if lv.L.cyclic <> [] then (nl, Array.init n (fun i -> i))
  else begin
    let new_of_old = Array.make n (-1) in
    let next = ref 0 in
    let assign i =
      new_of_old.(i) <- !next;
      incr next
    in
    let consts = ref [] and dffs = ref [] in
    Array.iteri
      (fun i c ->
        match c with
        | N.Constant _ -> consts := i :: !consts
        | N.Dffc _ -> dffs := i :: !dffs
        | _ -> ())
      nl.N.components;
    List.iter (fun (_, i) -> assign i) nl.N.inputs;
    List.iter assign (List.rev !consts);
    List.iter assign (List.rev !dffs);
    let key i =
      let fi = nl.N.fanin.(i) in
      let s0 = if Array.length fi > 0 then new_of_old.(fi.(0)) else -1 in
      let s1 = if Array.length fi > 1 then new_of_old.(fi.(1)) else -1 in
      (kind_order nl.N.components.(i), s0, s1, i)
    in
    Array.iter
      (fun rank ->
        let sorted = Array.copy rank in
        Array.sort (fun a b -> compare (key a) (key b)) sorted;
        Array.iter assign sorted)
      lv.L.by_level;
    let components = Array.make n (N.Constant false) in
    let fanin = Array.make n [||] in
    let names = Array.make n [] in
    for i = 0 to n - 1 do
      let j = new_of_old.(i) in
      components.(j) <- nl.N.components.(i);
      names.(j) <- nl.N.names.(i);
      fanin.(j) <- Array.map (fun s -> new_of_old.(s)) nl.N.fanin.(i)
    done;
    ( {
        N.components;
        fanin;
        names;
        inputs = List.map (fun (s, i) -> (s, new_of_old.(i))) nl.N.inputs;
        outputs = List.map (fun (s, i) -> (s, new_of_old.(i))) nl.N.outputs;
      },
      new_of_old )
  end

(* [Printf] string keys in a string [Hashtbl], polymorphic-variant
   drivers and a recursive liveness walk.  Its structural-dedup branch
   does not set [changed]; only the netlists are compared, and those the
   flag cannot change (a dedup always drops the deduplicated gate, so the
   fixpoint loop runs on either way). *)
module Reference_optimize = struct
  type alias = O.alias = Self | To of int | Const of bool

  let fold_and_dedup (nl : N.t) =
    let n = N.size nl in
    let alias = Array.make n Self in
    let rec resolve i =
      match alias.(i) with
      | Self -> (
          match nl.N.components.(i) with
          | N.Constant b -> `Const b
          | _ -> `Comp i)
      | Const b -> `Const b
      | To j -> (
          match resolve j with
          | `Comp k as r ->
            if k <> j then alias.(i) <- To k;
            r
          | `Const _ as r -> r)
    in
    let dedup : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let changed = ref false in
    for i = 0 to n - 1 do
      let comp = nl.N.components.(i) in
      let driver k = resolve nl.N.fanin.(i).(k) in
      let set a =
        alias.(i) <- a;
        changed := true
      in
      match comp with
      | N.Constant b -> (
          let key = Printf.sprintf "const%b" b in
          match Hashtbl.find_opt dedup key with
          | Some j when j <> i -> set (To j)
          | _ -> Hashtbl.replace dedup key i)
      | N.Invc -> (
          match driver 0 with
          | `Const b -> set (Const (not b))
          | `Comp d -> (
              match nl.N.components.(d) with
              | N.Invc
                when match resolve nl.N.fanin.(d).(0) with
                     | `Comp _ -> true
                     | `Const _ -> false -> (
                  match resolve nl.N.fanin.(d).(0) with
                  | `Comp x -> set (To x)
                  | `Const b -> set (Const b))
              | _ -> (
                  let key = Printf.sprintf "inv:%d" d in
                  match Hashtbl.find_opt dedup key with
                  | Some j when j <> i -> set (To j)
                  | _ -> Hashtbl.replace dedup key i)))
      | N.And2c | N.Or2c | N.Xor2c -> (
          let commutative_key tag a b =
            if a <= b then Printf.sprintf "%s:%d,%d" tag a b
            else Printf.sprintf "%s:%d,%d" tag b a
          in
          match (comp, driver 0, driver 1) with
          | N.And2c, `Const false, _ | N.And2c, _, `Const false -> set (Const false)
          | N.And2c, `Const true, `Const true -> set (Const true)
          | N.And2c, `Const true, `Comp x | N.And2c, `Comp x, `Const true -> set (To x)
          | N.And2c, `Comp x, `Comp y when x = y -> set (To x)
          | N.Or2c, `Const true, _ | N.Or2c, _, `Const true -> set (Const true)
          | N.Or2c, `Const false, `Const false -> set (Const false)
          | N.Or2c, `Const false, `Comp x | N.Or2c, `Comp x, `Const false -> set (To x)
          | N.Or2c, `Comp x, `Comp y when x = y -> set (To x)
          | N.Xor2c, `Const a, `Const b -> set (Const (a <> b))
          | N.Xor2c, `Const false, `Comp x | N.Xor2c, `Comp x, `Const false ->
            set (To x)
          | N.Xor2c, `Comp x, `Comp y when x = y -> set (Const false)
          | (N.And2c | N.Or2c | N.Xor2c), `Comp x, `Comp y -> (
              let tag =
                match comp with N.And2c -> "and" | N.Or2c -> "or" | _ -> "xor"
              in
              let key = commutative_key tag x y in
              match Hashtbl.find_opt dedup key with
              | Some j when j <> i -> alias.(i) <- To j
              | _ -> Hashtbl.replace dedup key i)
          | _ -> ())
      | N.Inport _ | N.Outport _ | N.Dffc _ -> ()
    done;
    (resolve, !changed)

  let rebuild (nl : N.t) resolve =
    let n = N.size nl in
    let const_idx = [| None; None |] in
    let live = Array.make n false in
    let need_const = [| false; false |] in
    let canonical i =
      match resolve i with
      | `Comp j -> `Comp j
      | `Const b ->
        need_const.(Bool.to_int b) <- true;
        `Const b
    in
    let rec mark i =
      match canonical i with
      | `Const _ -> ()
      | `Comp j ->
        if not live.(j) then begin
          live.(j) <- true;
          Array.iter mark nl.N.fanin.(j)
        end
    in
    List.iter (fun (_, i) -> live.(i) <- true) nl.N.outputs;
    List.iter (fun (_, i) -> Array.iter mark nl.N.fanin.(i)) nl.N.outputs;
    List.iter (fun (_, i) -> live.(i) <- true) nl.N.inputs;
    let remap = Array.make n (-1) in
    let count = ref 0 in
    for b = 0 to 1 do
      if need_const.(b) then begin
        const_idx.(b) <- Some !count;
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
    let components = Array.make total (N.Constant false) in
    let fanin = Array.make total [||] in
    let names = Array.make total [] in
    for b = 0 to 1 do
      match const_idx.(b) with
      | Some idx -> components.(idx) <- N.Constant (b = 1)
      | None -> ()
    done;
    let tr i =
      match canonical i with
      | `Comp j -> remap.(j)
      | `Const b -> Option.get const_idx.(Bool.to_int b)
    in
    for i = 0 to n - 1 do
      if live.(i) then begin
        let idx = remap.(i) in
        components.(idx) <- nl.N.components.(i);
        names.(idx) <- nl.N.names.(i);
        fanin.(idx) <- Array.map tr nl.N.fanin.(i)
      end
    done;
    {
      N.components;
      fanin;
      names;
      inputs = List.map (fun (s, i) -> (s, remap.(i))) nl.N.inputs;
      outputs = List.map (fun (s, i) -> (s, remap.(i))) nl.N.outputs;
    }

  let apply_aliases (nl : N.t) (alias : alias array) =
    let n = N.size nl in
    if Array.length alias <> n then invalid_arg "apply_aliases: length";
    let alias = Array.copy alias in
    let rec resolve ?(fuel = n) i =
      if fuel < 0 then invalid_arg "apply_aliases: alias cycle"
      else
        match alias.(i) with
        | Self -> (
            match nl.N.components.(i) with
            | N.Constant b -> `Const b
            | _ -> `Comp i)
        | Const b -> `Const b
        | To j -> (
            match resolve ~fuel:(fuel - 1) j with
            | `Comp k as r ->
              if k <> j then alias.(i) <- To k;
              r
            | `Const _ as r -> r)
    in
    if List.exists (fun (_, i) -> alias.(i) <> Self) (nl.N.inputs @ nl.N.outputs)
    then invalid_arg "apply_aliases: port component is aliased";
    rebuild nl (fun i -> resolve i)

  let once nl =
    let resolve, changed = fold_and_dedup nl in
    (rebuild nl resolve, changed)

  let optimize ?(max_rounds = 20) nl =
    let rec go nl rounds =
      if rounds = 0 then nl
      else
        let nl', changed = once nl in
        if (not changed) && N.size nl' >= N.size nl then nl'
        else go nl' (rounds - 1)
    in
    go nl max_rounds
end

(* A list-of-tuples DFS stack and a [string_of_int] / [Printf] per int. *)
let reference_digest (t : N.t) =
  let n = N.size t in
  let canon = Array.make n (-1) in
  let on_stack = Array.make n false in
  let next = ref 0 in
  let rev_order = ref [] in
  let visit root =
    if canon.(root) < 0 && not on_stack.(root) then begin
      on_stack.(root) <- true;
      let stack = ref [ (root, 0) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (i, port) :: rest ->
          let fi = t.N.fanin.(i) in
          if port < Array.length fi then begin
            stack := (i, port + 1) :: rest;
            let c = fi.(port) in
            if canon.(c) < 0 && not on_stack.(c) then begin
              on_stack.(c) <- true;
              stack := (c, 0) :: !stack
            end
          end
          else begin
            on_stack.(i) <- false;
            canon.(i) <- !next;
            incr next;
            rev_order := i :: !rev_order;
            stack := rest
          end
      done
    end
  in
  let by_name l = List.stable_sort (fun (a, _) (b, _) -> compare a b) l in
  List.iter (fun (_, i) -> visit i) (by_name t.N.outputs);
  List.iter (fun (_, i) -> visit i) (by_name t.N.inputs);
  let token = function
    | N.Dffc b -> if b then "dff1" else "dff0"
    | c -> N.component_name c
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "hydra-digest 1\n";
  List.iter
    (fun i ->
      Buffer.add_string buf (token t.N.components.(i));
      Array.iter
        (fun c ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int canon.(c)))
        t.N.fanin.(i);
      List.iter
        (fun nm ->
          Buffer.add_string buf " !";
          Buffer.add_string buf nm)
        t.N.names.(i);
      Buffer.add_char buf '\n')
    (List.rev !rev_order);
  let port label l =
    List.iter
      (fun (s, i) ->
        Buffer.add_string buf (Printf.sprintf "%s %s %d\n" label s canon.(i)))
      (by_name l)
  in
  port "input" t.N.inputs;
  port "output" t.N.outputs;
  let orphans = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      if canon.(i) < 0 then begin
        let tok = token c in
        Hashtbl.replace orphans tok
          (1 + Option.value ~default:0 (Hashtbl.find_opt orphans tok))
      end)
    t.N.components;
  List.iter
    (fun (tok, count) ->
      Buffer.add_string buf (Printf.sprintf "orphan %s %d\n" tok count))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) orphans []));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Random netlists ------------------------------------------------------- *)

(* [inputs] inports, one or two components per op, then outports on up
   to three drawn nodes (the rest may be dead logic).  Gate drivers come
   from lower indices, half the time from the first four so that gates
   share both sources (rank ties) and duplicate each other; op 6 copies
   an earlier gate, commuted on odd [b]; op 7 inverts the previous node
   (inverter pairs after an op 0); dffs read any node, later ones
   included (feedback); every fifth [b] labels the node. *)
let gen_ops =
  QCheck2.Gen.(
    triple (int_range 1 4)
      (list_size (int_range 0 50) (triple (int_bound 7) nat nat))
      (triple nat nat nat))

let random_netlist (inputs, ops, (o0, o1, o2)) =
  let ops = Array.of_list ops in
  let internal = inputs + Array.length ops in
  let pick i r = if r land 1 = 0 then (r / 2) mod min i 4 else (r / 2) mod i in
  let comps = Array.make internal (N.Constant false, [||]) in
  for i = 0 to internal - 1 do
    comps.(i) <-
      (if i < inputs then (N.Inport (Printf.sprintf "i%d" i), [||])
       else
         let kind, a, b = ops.(i - inputs) in
         let gate k = [| N.Invc; N.And2c; N.Or2c; N.Xor2c |].(k) in
         match kind with
         | 0 -> (N.Invc, [| pick i a |])
         | 1 | 2 | 3 -> (gate kind, [| pick i a; pick i b |])
         | 4 -> (N.Dffc (b land 1 = 1), [| a mod internal |])
         | 5 -> (N.Constant (a land 1 = 1), [||])
         | 6 -> (
             match comps.(pick i a) with
             | ((N.And2c | N.Or2c | N.Xor2c) as c), [| x; y |] when b land 1 = 1 ->
               (c, [| y; x |])
             | ((N.Invc | N.And2c | N.Or2c | N.Xor2c) as c), fi -> (c, Array.copy fi)
             | _ -> (N.Invc, [| pick i a |]))
         | _ -> (N.Invc, [| i - 1 |]))
  done;
  let drawn = List.sort_uniq compare [ o0 mod internal; o1 mod internal; o2 mod internal ] in
  let outs = List.filteri (fun k _ -> k < 1 + (o0 mod 3)) drawn in
  let comps =
    Array.append comps
      (Array.of_list
         (List.mapi (fun k d -> (N.Outport (Printf.sprintf "o%d" k), [| d |])) outs))
  in
  let labels i =
    if i >= inputs && i < internal then
      let _, _, b = ops.(i - inputs) in
      if b mod 5 = 0 then [ Printf.sprintf "l%d" i ] else []
    else []
  in
  {
    N.components = Array.map fst comps;
    fanin = Array.map snd comps;
    names = Array.init (Array.length comps) labels;
    inputs = List.init inputs (fun i -> (Printf.sprintf "i%d" i, i));
    outputs = List.mapi (fun k _ -> (Printf.sprintf "o%d" k, internal + k)) outs;
  }

(* A random alias map: ports stay [Self], others are [Self], a constant,
   or an alias of a lower index (on [cyclic], of any index, so [To] loops
   occur). *)
let gen_aliases = QCheck2.Gen.(pair bool (list_size (return 64) (pair (int_bound 3) nat)))

let random_aliases (nl : N.t) (cyclic, draws) =
  let draws = Array.of_list draws in
  let port i = List.exists (fun (_, j) -> j = i) (nl.N.inputs @ nl.N.outputs) in
  let n = N.size nl in
  Array.init n (fun i ->
      let kind, r = draws.(i mod Array.length draws) in
      if port i then O.Self
      else
        match kind with
        | 0 -> O.Self
        | 1 -> O.Const (r land 1 = 1)
        | _ when cyclic -> O.To (r mod n)
        | _ when i > 0 -> O.To (r mod i)
        | _ -> O.Self)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Catalogue circuits, built as the command line builds them ---------- *)

let ins prefix n = List.init n (fun i -> G.input (Printf.sprintf "%s%d" prefix i))

let adder_outputs (cout, sums) =
  ("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums

let catalogue_circuit name =
  let module A = Hydra_circuits.Arith.Make (G) in
  let module Alu = Hydra_circuits.Alu.Make (G) in
  let module Sorter = Hydra_circuits.Sorter.Make (G) in
  match name with
  | "ripple:8" ->
    N.of_graph
      ~outputs:(adder_outputs (A.ripple_add G.zero (List.combine (ins "x" 8) (ins "y" 8))))
  | "cla-kogge-stone:32" ->
    N.of_graph
      ~outputs:
        (adder_outputs
           (A.cla_add ~network:Hydra_core.Patterns.Kogge_stone G.zero
              (List.combine (ins "x" 32) (ins "y" 32))))
  | "alu:16" ->
    let op = ins "op" 4 in
    let ovfl, r = Alu.alu op (ins "x" 16) (ins "y" 16) in
    N.of_graph
      ~outputs:(("ovfl", ovfl) :: List.mapi (fun i s -> (Printf.sprintf "r%d" i, s)) r)
  | "sorter:4x8" ->
    let words = List.init 4 (fun i -> ins (Printf.sprintf "w%d_" i) 8) in
    N.of_graph
      ~outputs:
        (List.concat
           (List.mapi
              (fun i word -> List.mapi (fun j b -> (Printf.sprintf "o%d_%d" i j, b)) word)
              (Sorter.sort words)))
  | "wallace:64" ->
    let module W = Hydra_circuits.Wallace.Make (G) in
    let prod = W.multw (ins "x" 64) (ins "y" 64) in
    N.of_graph ~outputs:(List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) (List.map G.dff prod))
  | "cpu:8" ->
    let module Sys_g = Hydra_cpu.System.Make (G) in
    let word n = ins n 16 in
    let outs =
      Sys_g.system ~mem_bits:8
        { Sys_g.start = G.input "start"; dma = G.input "dma"; dma_a = word "da"; dma_d = word "dd" }
    in
    N.of_graph
      ~outputs:
        (("halted", outs.Sys_g.halted)
        :: List.mapi (fun i s -> (Printf.sprintf "pc%d" i, s)) outs.Sys_g.dp.Sys_g.D.pc
        @ List.mapi (fun i s -> (Printf.sprintf "r%d" i, s)) outs.Sys_g.dp.Sys_g.D.r)
  | _ -> invalid_arg name

(* [Netlist.digest] hex of each circuit as built before the int-keyed
   rewrite (the same as the digest of its [hydra netlist NAME -f hydra]
   file). *)
let pinned_digests =
  [
    ("wallace:64", "b50f96a894ca885fa03ce2674ee467bd");
    ("cpu:8", "f2c162be1afc7e85fd0dcd1b000b5cee");
    ("alu:16", "34bc11ce2fef0d6c4a4049de54063703");
    ("sorter:4x8", "be7fffebaf61f5e2109387156b37b6f9");
    ("cla-kogge-stone:32", "f62a98696c579353685c28d665aafea7");
    ("ripple:8", "c980e0e6668e9fec9217a5b81c3602bd");
  ]

let suite =
  [
    qc ~count:500 "layout: int-keyed rank_major_permutation = tuple-sorted reference" gen_ops
      (fun raw ->
        let nl = random_netlist raw in
        N.validate nl = Ok () && Layout.rank_major_permutation nl = reference_rank_major_permutation nl);
    qc ~count:500 "optimize: once and optimize = string-keyed reference, indices and names" gen_ops
      (fun raw ->
        let nl = random_netlist raw in
        fst (O.once nl) = fst (Reference_optimize.once nl)
        && O.optimize nl = Reference_optimize.optimize nl
        && O.optimize ~max_rounds:1 nl = Reference_optimize.optimize ~max_rounds:1 nl);
    qc ~count:500 "optimize: apply_aliases = reference, cycles raise in both"
      QCheck2.Gen.(pair gen_ops gen_aliases)
      (fun (raw, draws) ->
        let nl = random_netlist raw in
        let alias = random_aliases nl draws in
        match Reference_optimize.apply_aliases nl alias with
        | want -> O.apply_aliases nl alias = want
        | exception Invalid_argument _ -> raises_invalid (fun () -> O.apply_aliases nl alias));
    qc ~count:500 "digest: array-stack digest = list-stack reference, also after relayout" gen_ops
      (fun raw ->
        let nl = random_netlist raw in
        let laid = Layout.rank_major nl in
        N.digest nl = reference_digest nl
        && N.digest laid = reference_digest laid
        && N.digest laid = N.digest nl);
    tc "digest: catalogue circuits keep their pinned hex" (fun () ->
        List.iter
          (fun (name, hex) ->
            let nl = catalogue_circuit name in
            check_string name hex (N.digest nl);
            check_string (name ^ " reference") hex (reference_digest nl))
          pinned_digests);
    tc "optimize: once reports a dedup-only rewrite" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let nl = N.of_graph ~outputs:[ ("x", G.and2 a b); ("y", G.and2 a b) ] in
        check_int "two and2 gates" 2
          (Array.fold_left (fun k c -> if c = N.And2c then k + 1 else k) 0 nl.N.components);
        let once, changed = O.once nl in
        check_bool "changed" true changed;
        check_int "one and2 left" 1
          (Array.fold_left (fun k c -> if c = N.And2c then k + 1 else k) 0 once.N.components));
  ]
