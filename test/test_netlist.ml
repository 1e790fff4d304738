(* Tests for netlist extraction, the paper's 4-tuple format (section 4.4),
   levelization and the fabrication formats. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module L = Hydra_netlist.Levelize
module F = Hydra_netlist.Formats
module CG = Hydra_circuits.Gates.Make (Hydra_core.Graph)
module CR = Hydra_circuits.Regs.Make (Hydra_core.Graph)
module CA = Hydra_circuits.Arith.Make (Hydra_core.Graph)

(* The section 4.4 example: x = and2 (inv a) b. *)
let fig1_netlist () =
  let a = G.input "a" and b = G.input "b" in
  N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ]

let ripple_netlist n =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = CA.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout)
      :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

(* The list-and-[Queue] levelization that [Levelize.compute] replaced,
   kept as the reference its flat-array rewrite must match field for
   field.  Ranks list their members in ascending index order. *)
let reference_levelize (nl : N.t) =
  let n = N.size nl in
  let levels = Array.make n (-1) in
  let remaining = Array.make n 0 in
  let fanout = Array.make n [] in
  Array.iteri
    (fun sink drivers ->
      Array.iteri (fun port d -> fanout.(d) <- (sink, port) :: fanout.(d)) drivers)
    nl.N.fanin;
  let fanout = Array.map List.rev fanout in
  let is_source i =
    match nl.N.components.(i) with
    | N.Inport _ | N.Constant _ | N.Dffc _ -> true
    | _ -> false
  in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if is_source i then begin
      levels.(i) <- 0;
      Queue.add i queue
    end
    else remaining.(i) <- Array.length nl.N.fanin.(i)
  done;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    List.iter
      (fun (sink, _) ->
        match nl.N.components.(sink) with
        | N.Dffc _ -> ()
        | _ ->
          remaining.(sink) <- remaining.(sink) - 1;
          if levels.(i) + 1 > levels.(sink) then levels.(sink) <- levels.(i) + 1;
          if remaining.(sink) = 0 then Queue.add sink queue)
      fanout.(i)
  done;
  let cyclic = ref [] in
  for i = n - 1 downto 0 do
    if (not (is_source i)) && remaining.(i) > 0 then begin
      levels.(i) <- -1;
      cyclic := i :: !cyclic
    end
  done;
  let critical = ref 0 in
  Array.iteri
    (fun i c ->
      match c with
      | N.Outport _ | N.Dffc _ ->
        Array.iter (fun d -> critical := max !critical levels.(d)) nl.N.fanin.(i)
      | _ -> ())
    nl.N.components;
  let buckets = Array.make (Array.fold_left max 0 levels + 1) [] in
  for i = n - 1 downto 0 do
    if (not (is_source i)) && levels.(i) >= 0 then
      buckets.(levels.(i)) <- i :: buckets.(levels.(i))
  done;
  {
    L.levels;
    by_level = Array.map Array.of_list buckets;
    critical_path = !critical;
    cyclic = List.sort_uniq compare !cyclic;
  }

let same_levelization (a : L.t) (b : L.t) = a = b

(* Random raw netlists: [inputs] inports, then one component per node,
   then an outport on each of the last three nodes.  [shape] 0 draws
   every gate and dff driver from lower indices (acyclic); 1 draws gate
   drivers from any non-outport, self included (combinational cycles);
   2 keeps the gates acyclic but points every dff at itself or at any
   non-outport (dff feedback and self-loops). *)
let gen_raw =
  QCheck2.Gen.(
    triple (int_bound 2) (int_range 1 4)
      (list_size (int_range 0 40) (triple (int_bound 5) nat nat)))

let raw_netlist (shape, inputs, nodes) =
  let nodes = Array.of_list nodes in
  let internal = inputs + Array.length nodes in
  let n_out = min 3 internal in
  let pick i r =
    match shape with 1 -> r mod internal | _ -> r mod i
  in
  let node i (kind, a, b) =
    match kind with
    | 0 -> (N.Invc, [| pick i a |])
    | 1 -> (N.And2c, [| pick i a; pick i b |])
    | 2 -> (N.Or2c, [| pick i a; pick i b |])
    | 3 -> (N.Xor2c, [| pick i a; pick i b |])
    | 4 when shape = 2 -> (N.Dffc (b land 1 = 1), [| (if a land 1 = 0 then i else a mod internal) |])
    | 4 -> (N.Dffc (b land 1 = 1), [| pick i a |])
    | _ -> (N.Constant (a land 1 = 1), [||])
  in
  let comps =
    Array.init (internal + n_out) (fun i ->
        if i < inputs then (N.Inport (Printf.sprintf "i%d" i), [||])
        else if i < internal then node i nodes.(i - inputs)
        else (N.Outport (Printf.sprintf "o%d" (i - internal)), [| internal - 1 - (i - internal) |]))
  in
  {
    N.components = Array.map fst comps;
    fanin = Array.map snd comps;
    names = Array.make (Array.length comps) [];
    inputs = List.init inputs (fun i -> (Printf.sprintf "i%d" i, i));
    outputs = List.init n_out (fun j -> (Printf.sprintf "o%d" j, internal + j));
  }

(* One gate of [nl] edited: [kind] 0 makes it an inverter, 1..3 an
   and, or or xor; a two-input gate keeps its fanin when [a] is even and
   the new kind has two inputs (a kind-only edit), otherwise its fanin is
   redrawn from every non-outport, itself and its own fanout included,
   so the edit may close a combinational cycle.  [None] when [nl] has no
   gate. *)
let edit_gate (nl : N.t) (r, kind, a, b) =
  let gates =
    List.filter
      (fun i ->
        match nl.N.components.(i) with
        | N.Invc | N.And2c | N.Or2c | N.Xor2c -> true
        | _ -> false)
      (List.init (N.size nl) Fun.id)
  in
  match gates with
  | [] -> None
  | _ ->
    let e = List.nth gates (r mod List.length gates) in
    (* raw netlists put their outports last *)
    let drivers = N.size nl - List.length nl.N.outputs in
    let old = nl.N.fanin.(e) in
    let c, fi =
      match kind with
      | 0 -> (N.Invc, [| a mod drivers |])
      | k ->
        let c = [| N.And2c; N.Or2c; N.Xor2c |].(k - 1) in
        if a land 1 = 0 && Array.length old = 2 then (c, old)
        else (c, [| a mod drivers; b mod drivers |])
    in
    let components = Array.copy nl.N.components and fanin = Array.copy nl.N.fanin in
    components.(e) <- c;
    fanin.(e) <- fi;
    Some ({ nl with N.components; fanin }, e)

let suite =
  [
    tc "fig1: component inventory" (fun () ->
        let nl = fig1_netlist () in
        let s = N.stats nl in
        check_int "gates" 2 s.N.gates;
        check_int "inputs" 2 s.N.inports;
        check_int "outputs" 1 s.N.outports;
        check_int "dffs" 0 s.N.dffs);
    tc "fig1: paper 4-tuple format (E4)" (fun () ->
        let str = F.to_paper_string (fig1_netlist ()) in
        (* ids: 0,1 = inports a b; 2 = outport x; 3,4 = inv, and2 —
           exactly the paper's numbering *)
        let expected =
          "([(0, InPort \"a\"), (1, InPort \"b\")],\n\
          \ [(2, OutPort \"x\")],\n\
          \ [(3, Inv), (4, And2)],\n\
          \ [((0,0), [(3,0)]), ((1,0), [(4,1)]), ((3,1), [(4,0)]), ((4,2), [(2,0)])])"
        in
        check_string "tuple" expected str);
    tc "sharing: one node for a reused subcircuit" (fun () ->
        let a = G.input "a" in
        let i = G.inv a in
        let nl = N.of_graph ~outputs:[ ("x", G.and2 i i) ] in
        check_int "gates" 2 (N.stats nl).N.gates);
    tc "feedback: reg1 netlist is a cycle with one dff" (fun () ->
        let ld = G.input "ld" and x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("s", CR.reg1 ld x) ] in
        let s = N.stats nl in
        check_int "dffs" 1 s.N.dffs;
        (* mux1 = inv + 2 and + or *)
        check_int "gates" 4 s.N.gates);
    tc "levelize: fig1 critical path = 2" (fun () ->
        check_int "cp" 2 (L.critical_path (fig1_netlist ())));
    tc "levelize: matches Depth semantics on ripple adder" (fun () ->
        let n = 8 in
        let module DA = Hydra_circuits.Arith.Make (Hydra_core.Depth) in
        Hydra_core.Depth.reset ();
        let ins = List.init n (fun _ -> (Hydra_core.Depth.input, Hydra_core.Depth.input)) in
        let cout, sums = DA.ripple_add Hydra_core.Depth.zero ins in
        let r = Hydra_core.Depth.report (cout :: sums) in
        check_int "same critical path" r.Hydra_core.Depth.critical_path
          (L.critical_path (ripple_netlist n)));
    tc "levelize: dff breaks cycles" (fun () ->
        let ld = G.input "ld" and x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("s", CR.reg1 ld x) ] in
        let t = L.check nl in
        check_bool "no comb cycle" true (t.L.cyclic = []));
    tc "levelize: combinational cycle detected" (fun () ->
        let out = G.feedback (fun s -> G.and2 s (G.input "a")) in
        let nl = N.of_graph ~outputs:[ ("x", out) ] in
        let t = L.compute nl in
        check_bool "cycle found" true (t.L.cyclic <> []);
        match L.check nl with
        | _ -> Alcotest.fail "expected Combinational_cycle"
        | exception L.Combinational_cycle _ -> ());
    tc "levelize: by_level covers all gates once" (fun () ->
        let nl = ripple_netlist 6 in
        let t = L.check nl in
        let counted = Array.fold_left (fun acc l -> acc + Array.length l) 0 t.L.by_level in
        check_int "gate+outport count" ((N.stats nl).N.gates + (N.stats nl).N.outports) counted);
    tc "fanout is inverse of fanin" (fun () ->
        let nl = ripple_netlist 4 in
        let fo = N.fanout nl in
        let drives drv sink port =
          let found = ref false in
          for e = fo.N.off.(drv) to fo.N.off.(drv + 1) - 1 do
            if fo.N.sink.(e) = sink && fo.N.port.(e) = port then found := true
          done;
          !found
        in
        let ok = ref true in
        Array.iteri
          (fun sink drivers ->
            Array.iteri
              (fun port drv -> if not (drives drv sink port) then ok := false)
              drivers)
          nl.N.fanin;
        check_bool "consistent" true !ok;
        (* one edge per fanin entry, each row ascending by (sink, port) *)
        let edges = Array.fold_left (fun a fi -> a + Array.length fi) 0 nl.N.fanin in
        check_int "edges" edges (Array.length fo.N.sink);
        check_int "offsets" (N.size nl + 1) (Array.length fo.N.off);
        for d = 0 to N.size nl - 1 do
          for e = fo.N.off.(d) + 1 to fo.N.off.(d + 1) - 1 do
            if compare (fo.N.sink.(e - 1), fo.N.port.(e - 1)) (fo.N.sink.(e), fo.N.port.(e)) >= 0
            then ok := false
          done
        done;
        check_bool "rows ascending" true !ok);
    tc "dot output mentions every component" (fun () ->
        let nl = fig1_netlist () in
        let dot = F.to_dot nl in
        check_bool "digraph" true (String.length dot > 0);
        let count_nodes =
          List.length
            (String.split_on_char '\n' dot
            |> List.filter (fun l -> String.length l > 3 && String.sub l 2 1 = "n"))
        in
        check_bool "some nodes" true (count_nodes >= N.size nl));
    tc "verilog: combinational module structure" (fun () ->
        let v = F.to_verilog ~name:"fig1" (fig1_netlist ()) in
        check_bool "module line" true
          (String.length v > 0
          && String.sub v 0 11 = "module fig1");
        check_bool "no clk for comb" true
          (not (String.split_on_char ',' v |> List.exists (fun s -> String.trim s = "input clk"))));
    tc "verilog: sequential module has clk and reg" (fun () ->
        let ld = G.input "ld" and x = G.input "x" in
        let nl = N.of_graph ~outputs:[ ("s", CR.reg1 ld x) ] in
        let v = F.to_verilog ~name:"reg1" nl in
        let contains hay needle =
          let nl_ = String.length needle and hl = String.length hay in
          let rec go i = i + nl_ <= hl && (String.sub hay i nl_ = needle || go (i + 1)) in
          go 0
        in
        check_bool "clk port" true (contains v "input clk");
        check_bool "always block" true (contains v "always @(posedge clk)"));
    tc "serialize: round trip of fig1" (fun () ->
        let nl = fig1_netlist () in
        let nl' = Hydra_netlist.Serial.of_string (Hydra_netlist.Serial.to_string nl) in
        check_bool "components" true (nl'.N.components = nl.N.components);
        check_bool "fanin" true (nl'.N.fanin = nl.N.fanin);
        check_bool "ports" true
          (nl'.N.inputs = nl.N.inputs && nl'.N.outputs = nl.N.outputs));
    tc "serialize: sequential circuit with labels round-trips" (fun () ->
        let ld = G.input "ld" and x = G.input "x" in
        let s = G.label "state" (CR.reg1 ld x) in
        let nl = N.of_graph ~outputs:[ ("s", s) ] in
        let nl' = Hydra_netlist.Serial.of_string (Hydra_netlist.Serial.to_string nl) in
        check_bool "names preserved" true (nl'.N.names = nl.N.names);
        check_bool "dffs preserved" true ((N.stats nl').N.dffs = 1);
        (* behaviour identical *)
        let run nl =
          Hydra_scalar.Compiled.run
            (Hydra_scalar.Compiled.create nl)
            ~inputs:[ ("ld", [ true; false ]); ("x", [ true; false ]) ]
            ~cycles:2
        in
        check_bool "same behaviour" true (run nl = run nl'));
    tc "serialize: parse errors are reported" (fun () ->
        (match Hydra_netlist.Serial.of_string "garbage\n" with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception Hydra_netlist.Serial.Parse_error _ -> ());
        match
          Hydra_netlist.Serial.of_string
            "hydra-netlist 1\ncomponent 0 frob\nend\n"
        with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception Hydra_netlist.Serial.Parse_error _ -> ());
    tc "serialize: file round trip" (fun () ->
        let nl = ripple_netlist 4 in
        let path = Filename.temp_file "hydra" ".netlist" in
        Hydra_netlist.Serial.to_file nl path;
        let nl' = Hydra_netlist.Serial.of_file path in
        Sys.remove path;
        check_bool "equal" true (nl'.N.components = nl.N.components));
    tc "stats string" (fun () ->
        let s = F.stats_string (fig1_netlist ()) in
        check_bool "nonempty" true (String.length s > 0));
    qc ~count:500 "levelize: flat-array compute = list-and-Queue reference; memo per value"
      gen_raw (fun raw ->
        let nl = raw_netlist raw in
        let t = L.compute nl in
        let copy = { nl with N.names = nl.N.names } in
        N.validate nl = Ok ()
        && same_levelization t (reference_levelize nl)
        && L.of_netlist nl == L.of_netlist nl
        && same_levelization (L.of_netlist nl) t
        && L.of_netlist copy != L.of_netlist nl
        && same_levelization (L.of_netlist copy) t);
    qc ~count:500 "levelize: of_levels rebuilds compute; relevel after a gate edit = compute"
      QCheck2.Gen.(pair gen_raw (quad nat (int_bound 3) nat nat))
      (fun ((shape, inputs, nodes), edit) ->
        let any = raw_netlist (shape, inputs, nodes) in
        let t = L.compute any in
        (* relevel starts from an acyclic levelization *)
        let nl = raw_netlist ((if shape = 1 then 0 else shape), inputs, nodes) in
        let old = L.compute nl in
        same_levelization (L.of_levels any t.L.levels ~cyclic:t.L.cyclic) t
        && old.L.cyclic = []
        &&
        match edit_gate nl edit with
        | None -> true
        | Some (nl', e) -> (
          let full = L.compute nl' in
          match L.relevel nl' old ~seeds:[ e ] with
          | t', changed ->
            full.L.cyclic = []
            && same_levelization t' full
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun i l -> l = old.L.levels.(i) || changed.(i))
                    full.L.levels)
          | exception L.Combinational_cycle c -> c <> [] && c = full.L.cyclic));
    tc "levelize: a bad fanin index names the component, port and driver" (fun () ->
        let nl = fig1_netlist () in
        let fanin = Array.map Array.copy nl.N.fanin in
        let and2 = ref (-1) in
        Array.iteri (fun i c -> if c = N.And2c then and2 := i) nl.N.components;
        let bad = { nl with N.fanin } in
        let expect what f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument m ->
            check_string what
              (Printf.sprintf
                 "Netlist.fanout: component %d (and2) port 1: driver index %d out of \
                  range 0..4"
                 !and2 fanin.(!and2).(1))
              m
        in
        fanin.(!and2).(1) <- 7;
        expect "fanout" (fun () -> N.fanout bad);
        expect "compute" (fun () -> L.compute bad);
        expect "check" (fun () -> L.check bad);
        fanin.(!and2).(1) <- -1;
        expect "negative index" (fun () -> N.fanout bad));
  ]

(* [Levelize.of_netlist] and [Netlist.digest] from every member of a
   team at once, on one shared netlist and on fresh ones, each result
   equal to an unmemoized one.  Each round shares a new netlist, so the
   members race on an empty memo entry, and the fresh copies evict each
   other's. *)
let memo_suite =
  [
    tc "of_netlist from concurrent team members = compute" (fun () ->
        let base = ripple_netlist 24 in
        let want = L.compute base in
        (* a copy nothing has digested yet misses the memo *)
        let want_digest = N.digest { base with N.names = base.N.names } in
        let pool = Hydra_parallel.Pool.create ~domains:4 () in
        let members = Hydra_parallel.Pool.size pool in
        Fun.protect
          ~finally:(fun () -> Hydra_parallel.Pool.shutdown pool)
          (fun () ->
            for _ = 1 to 20 do
              let shared = { base with N.names = base.N.names } in
              let ok = Array.make members false in
              Hydra_parallel.Pool.run_team pool (fun m ->
                  let fresh = { base with N.names = base.N.names } in
                  ok.(m) <-
                    same_levelization (L.of_netlist shared) want
                    && same_levelization (L.of_netlist fresh) want
                    && same_levelization (L.of_netlist shared) want
                    && N.digest shared = want_digest
                    && N.digest fresh = want_digest
                    && N.digest shared = want_digest);
              check_bool "every result = compute" true (Array.for_all Fun.id ok)
            done));
  ]
