(* Netlist extraction on one int table: [Netlist.extract] against the
   list- and [Hashtbl]-based implementation it replaced, kept here as the
   reference; [Int_table] against a [Hashtbl] model; graphs built on two
   domains at once; and [Equiv.wide_random_netlists], whose two sides are
   prepared as concurrent tasks, giving the same answers and errors at
   one and two domains. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module T = Hydra_netlist.Int_table
module Equiv = Hydra_verify.Equiv

(* The reference: the recursive post-order walk with one [Hashtbl] for
   the index and one for the on-stack marker, components, fanins and
   names consed onto lists and reversed into arrays at the end. *)
let reference_extract ~inputs ~outputs =
  let index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let on_stack : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let comps = ref [] and fanins = ref [] and names = ref [] in
  let count = ref 0 in
  let add comp fanin_ids nms =
    let idx = !count in
    incr count;
    comps := comp :: !comps;
    fanins := fanin_ids :: !fanins;
    names := nms :: !names;
    idx
  in
  let rec visit node =
    let node = G.resolve node in
    if not (Hashtbl.mem index node.G.id || Hashtbl.mem on_stack node.G.id) then begin
      Hashtbl.add on_stack node.G.id ();
      let children = G.children node in
      List.iter visit children;
      let comp =
        match node.G.def with
        | G.Input s -> N.Inport s
        | G.Const b -> N.Constant b
        | G.Inv _ -> N.Invc
        | G.And2 _ -> N.And2c
        | G.Or2 _ -> N.Or2c
        | G.Xor2 _ -> N.Xor2c
        | G.Dff (init, _) -> N.Dffc init
        | G.Forward _ -> assert false
      in
      let child_ids = List.map G.id children in
      let idx = add comp child_ids (List.rev node.G.names) in
      Hashtbl.remove on_stack node.G.id;
      Hashtbl.add index node.G.id idx
    end
  in
  List.iter visit inputs;
  let out_entries =
    List.map
      (fun (name, node) ->
        visit node;
        let idx = add (N.Outport name) [ G.id node ] [] in
        (name, idx))
      outputs
  in
  let n = !count in
  let components = Array.make n (N.Constant false) in
  let fanin = Array.make n [||] in
  let names_arr = Array.make n [] in
  List.iteri (fun i comp -> components.(n - 1 - i) <- comp) !comps;
  List.iteri
    (fun i ids -> fanin.(n - 1 - i) <- Array.of_list (List.map (fun gid -> Hashtbl.find index gid) ids))
    !fanins;
  List.iteri (fun i nm -> names_arr.(n - 1 - i) <- nm) !names;
  let inputs = ref [] in
  Array.iteri (fun i comp -> match comp with N.Inport s -> inputs := (s, i) :: !inputs | _ -> ()) components;
  { N.components; fanin; names = names_arr; inputs = List.rev !inputs; outputs = out_entries }

(* Random graphs ---------------------------------------------------------- *)

(* A pool of nodes grown by [ops]: inputs (two share a name), the global
   [G.zero] and [G.one], gates over any earlier pool members (so subterms
   are shared), dffs, labels (the same names again and again, twice on
   one node too), and [G.feedback] knots closed through a dff or through
   a gate, the latter a combinational cycle, which extraction must walk
   all the same.  The global constants are never labelled: a label on
   them would outlive the case. *)
let gen_graph =
  QCheck2.Gen.(
    triple (int_range 1 5)
      (list_size (int_range 0 40) (quad (int_bound 9) nat nat nat))
      (pair (list_size (int_range 1 5) nat) (int_bound 3)))

let random_graph (ninputs, ops, (outs, declare)) =
  let inputs = List.init ninputs (fun i -> G.input (if i = 1 then "i0" else Printf.sprintf "i%d" i)) in
  let pool = ref (Array.of_list (inputs @ [ G.zero; G.one ])) in
  let pick r = !pool.(r mod Array.length !pool) in
  let labellable k = k < ninputs || k >= ninputs + 2 in
  let push s = pool := Array.append !pool [| s |] in
  List.iter
    (fun (op, a, b, c) ->
      match op with
      | 0 -> push (G.inv (pick a))
      | 1 -> push (G.and2 (pick a) (pick b))
      | 2 -> push (G.or2 (pick a) (pick b))
      | 3 -> push (G.xor2 (pick a) (pick b))
      | 4 -> push (G.dff_init (c land 1 = 1) (pick a))
      | 5 ->
        let k = a mod Array.length !pool in
        if labellable k then begin
          let name = Printf.sprintf "l%d" (b mod 3) in
          ignore (G.label name !pool.(k));
          if c land 1 = 1 then ignore (G.label name !pool.(k))
        end
      | 6 -> push (G.feedback (fun loop -> G.dff (G.xor2 loop (pick a))))
      | 7 -> push (G.feedback (fun loop -> G.and2 (pick a) (G.inv loop)))
      | 8 ->
        (match G.feedback_list 2 (fun l -> match l with
             | [ x; y ] -> [ G.dff (G.or2 y (pick a)); G.dff_init true (G.and2 x (pick b)) ]
             | _ -> assert false) with
        | [ x; y ] -> push x; push y
        | _ -> assert false)
      | _ -> push (G.and2 (pick a) (pick a)))
    ops;
  (* an input as an output, then the same node under two names *)
  let outputs =
    ("oi", List.hd inputs)
    :: List.concat_map
         (fun r ->
           let s = pick r in
           [ (Printf.sprintf "o%d" r, s); (Printf.sprintf "p%d" r, s) ])
         outs
  in
  (* declared: all inputs, none, only the last, or the inputs twice *)
  let declared =
    match declare with
    | 0 -> inputs
    | 1 -> []
    | 2 -> [ List.nth inputs (ninputs - 1) ]
    | _ -> inputs @ inputs
  in
  (declared, outputs)

(* Int_table ------------------------------------------------------------- *)

(* Keys that differ only in bits 58 and up fall into the same slot of any
   table of up to 2^29 slots: the multiplicative mix carries a change
   there only into bits 29 and up.  Each op draws a base from a small
   set, so keys repeat, and one of eight high parts; all keys stay within
   [max_int / 2]. *)
let gen_table_ops =
  QCheck2.Gen.(
    pair (int_bound 40)
      (list_size (int_range 0 300) (quad (int_bound 2) (int_bound 11) (int_bound 7) (int_bound 1000))))

let table_key base j =
  let low = if base < 8 then base else base * 1_000_003 mod (1 lsl 40) in
  low + (j lsl 58)

(* Equiv ------------------------------------------------------------------ *)

(* [nl] with output [o0] driven through an extra inverter: a pair that
   mismatches at cycle 0. *)
let invert_first_output (nl : N.t) =
  match nl.N.outputs with
  | [] -> nl
  | (_, o) :: _ ->
    let n = N.size nl in
    let fanin = Array.append (Array.copy nl.N.fanin) [| [| nl.N.fanin.(o).(0) |] |] in
    fanin.(o) <- [| n |];
    { nl with N.components = Array.append nl.N.components [| N.Invc |]; fanin; names = Array.append nl.N.names [| [] |] }

(* [nl] with a gate's kind changed, when it has a two-input gate *)
let flip_gate (nl : N.t) r =
  let gates = List.filter (fun i -> N.input_arity nl.N.components.(i) = 2) (List.init (N.size nl) Fun.id) in
  match gates with
  | [] -> nl
  | _ ->
    let i = List.nth gates (r mod List.length gates) in
    let components = Array.copy nl.N.components in
    components.(i) <- (if components.(i) = N.Xor2c then N.And2c else N.Xor2c);
    { nl with N.components }

let dangling (nl : N.t) =
  let fanin = Array.copy nl.N.fanin in
  let o = snd (List.hd nl.N.outputs) in
  fanin.(o) <- [| N.size nl + 7 |];
  { nl with N.fanin }

let equiv_outcome ~domains nl1 nl2 =
  match Equiv.wide_random_netlists ~domains ~passes:4 ~cycles:8 ~seed:11 nl1 nl2 with
  | r -> Ok r
  | exception Invalid_argument m -> Error m

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let wallace16_outputs () =
  let module W = Hydra_circuits.Wallace.Make (G) in
  let prod = W.multw (Test_passes.ins "x" 16) (Test_passes.ins "y" 16) in
  List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) (List.map G.dff prod)

let alu16_outputs () =
  let module Alu = Hydra_circuits.Alu.Make (G) in
  let ovfl, r = Alu.alu (Test_passes.ins "op" 4) (Test_passes.ins "x" 16) (Test_passes.ins "y" 16) in
  ("ovfl", ovfl) :: List.mapi (fun i s -> (Printf.sprintf "r%d" i, s)) r

let suite =
  [
    qc ~count:400 "extract: int-table walk = Hashtbl/list reference" gen_graph (fun raw ->
        let inputs, outputs = random_graph raw in
        N.extract ~inputs ~outputs = reference_extract ~inputs ~outputs
        && N.of_graph ~outputs = reference_extract ~inputs:[] ~outputs);
    tc "extract: wallace:16 and alu:16 = reference" (fun () ->
        List.iter
          (fun (name, outputs) ->
            check_bool name true (N.of_graph ~outputs = reference_extract ~inputs:[] ~outputs))
          [ ("wallace:16", wallace16_outputs ()); ("alu:16", alu16_outputs ()) ]);
    qc ~count:400 "int_table: find, find_or_add and replace agree with a Hashtbl model"
      gen_table_ops (fun (size, ops) ->
        let t = T.create size and model = Hashtbl.create 16 in
        let model_find k = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
        List.for_all
          (fun (op, base, j, v) ->
            let k = table_key base j in
            (match op with
             | 0 -> true
             | 1 ->
               T.replace t k v;
               Hashtbl.replace model k v;
               true
             | _ ->
               let want = model_find k in
               if want = -1 then Hashtbl.replace model k v;
               T.find_or_add t k v = want)
            && T.find t k = model_find k)
          ops
        && Hashtbl.fold (fun k v ok -> ok && T.find t k = v) model true);
    tc "int_table: keys up to max_int / 2, a negative key raises" (fun () ->
        let t = T.create 0 in
        T.replace t (max_int / 2) 5;
        T.replace t 0 6;
        check_int "max_int / 2" 5 (T.find t (max_int / 2));
        check_int "zero" 6 (T.find t 0);
        check_int "unbound" (-1) (T.find t 1);
        check_int "negative keys are unbound" (-1) (T.find t (-1) + T.find t min_int + 1);
        check_bool "negative key" true
          (match T.replace t (-1) 0 with () -> false | exception Invalid_argument _ -> true);
        check_bool "negative key, find_or_add" true
          (match T.find_or_add t min_int 0 with _ -> false | exception Invalid_argument _ -> true));
    tc "graph ids: wallace:16 and alu:16 built on two domains = sequential builds" (fun () ->
        let extract outputs = N.of_graph ~outputs in
        let want_w = extract (wallace16_outputs ()) and want_a = extract (alu16_outputs ()) in
        (* both domains start building together, and only build: drawing
           ids is then most of what they contend on *)
        let ready = Atomic.make 0 in
        let builder build () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          List.init 6 (fun _ -> build ())
        in
        for _ = 1 to 8 do
          Atomic.set ready 0;
          let dw = Domain.spawn (builder wallace16_outputs) in
          let da = Domain.spawn (builder alu16_outputs) in
          List.iter (fun o -> check_bool "wallace:16" true (extract o = want_w)) (Domain.join dw);
          List.iter (fun o -> check_bool "alu:16" true (extract o = want_a)) (Domain.join da)
        done);
    qc ~count:60 "equiv: wide_random_netlists at 1 and 2 domains, mismatches and errors alike"
      QCheck2.Gen.(pair Test_passes.gen_ops nat)
      (fun (raw, r) ->
        let nl = Test_passes.random_netlist raw in
        let same nl1 nl2 = equiv_outcome ~domains:1 nl1 nl2 = equiv_outcome ~domains:2 nl1 nl2 in
        let inverted = invert_first_output nl in
        (match equiv_outcome ~domains:2 nl inverted with
         | Ok (Equiv.Seq_mismatch { cycle = 0; _ }) -> true
         | _ -> false)
        && same nl inverted
        && same nl (flip_gate nl r)
        &&
        match equiv_outcome ~domains:2 (dangling nl) (dangling inverted) with
        | Error m -> contains m "invalid netlist nl1" && same (dangling nl) (dangling inverted)
        | Ok _ -> false);
  ]
