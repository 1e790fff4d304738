(* Benchmark and reproduction harness.

   One section per experiment in DESIGN.md's index (E1..E24): the paper is
   an overview without numeric tables, so the reproducible artifacts are
   its figures, inline code/outputs and quantitative claims.  Each section
   regenerates one of them; timing sections use Bechamel (OLS over the
   monotonic clock) or wall-clock loops for the longer-running engines. *)

module Bit = Hydra_core.Bit
module Bitvec = Hydra_core.Bitvec
module P = Hydra_core.Patterns
module S = Hydra_core.Stream_sim
module D = Hydra_core.Depth
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module L = Hydra_netlist.Levelize
module F = Hydra_netlist.Formats
module Compiled = Hydra_engine.Compiled
module Wide = Hydra_engine.Compiled_wide
module Interp = Hydra_engine.Interp
module Parallel_sim = Hydra_engine.Parallel_sim
module Event = Hydra_engine.Event
module Pool = Hydra_parallel.Pool
module Equiv = Hydra_verify.Equiv
module Bdd = Hydra_verify.Bdd

let section id title = Printf.printf "\n=== %s: %s ===\n%!" id title
let row fmt = Printf.printf fmt

(* Machine-readable results: timing sections push (section, metric,
   value, unit) rows here — parallel/wide rows also carry the domain
   count and lane width so the trajectory is comparable across hosts;
   [--json path] writes them out so successive PRs can track the perf
   trajectory (see BENCH_results.json).  Any row carrying a [domains]
   count is also stamped with the host's core count: a sharded row that
   trails the single-instance engine is expected on a 1-core host, and
   without the stamp that reads as a regression. *)
let host_cores = Domain.recommended_domain_count ()

let results :
    (string * string * float * string * int option * int option * int option
    * float option * int option * (float * int) option)
    list ref =
  ref []

(* [?wall_s] is the wall-clock spent producing the row and [?warmup] the
   number of warm-up iterations discarded before measuring — new rows
   must stamp both (the E27 convention extending [host_cores] from PR 5)
   so single-core CI numbers are interpretable.  A row whose [value] is
   the median of repeated samples carries [?spread:(iqr, n)]. *)
let record ?domains ?lanes ?host_cores:hc ?wall_s ?warmup ?spread ~section:sec
    ~name ~value ~unit_ () =
  let hc =
    match (hc, domains) with
    | (Some _ as h), _ -> h
    | None, Some _ -> Some host_cores
    | None, None -> None
  in
  results :=
    (sec, name, value, unit_, domains, lanes, hc, wall_s, warmup, spread)
    :: !results

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "error: cannot write %s (%s)\n" path msg;
      exit 1
  | oc ->
  Printf.fprintf oc "{\n  \"results\": [\n";
  let rows = List.rev !results in
  List.iteri
    (fun i (sec, name, value, unit_, domains, lanes, hc, wall_s, warmup, spread) ->
      let opt key = function
        | None -> ""
        | Some v -> Printf.sprintf ", \"%s\": %d" key v
      in
      let optf key = function
        | None -> ""
        | Some v -> Printf.sprintf ", \"%s\": %.6g" key v
      in
      Printf.fprintf oc
        "    {\"section\": \"%s\", \"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"%s%s%s%s%s%s%s}%s\n"
        (json_escape sec) (json_escape name) value (json_escape unit_)
        (optf "iqr" (Option.map fst spread)) (opt "n" (Option.map snd spread))
        (opt "domains" domains) (opt "lanes" lanes) (opt "host_cores" hc)
        (optf "wall_s" wall_s) (opt "warmup" warmup)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"host_cores\": %d" host_cores;
  if host_cores = 1 then
    Printf.fprintf oc
      ",\n  \"note\": \"single-core host: rows with a domains count cannot \
       show parallel speedup, so sharded rates at or below the \
       single-instance engine are expected here, not a regression\"";
  Printf.fprintf oc "\n}\n";
  close_out oc;
  Printf.printf "\nwrote %d result row(s) to %s\n" (List.length rows) path;
  if host_cores = 1 then
    print_endline
      "note: single-core host — domain-sharded rows cannot beat the \
       single-instance engine here; compare them only against runs with \
       matching host_cores"

(* Wall-clock timing helper: run [f] repeatedly for at least [min_time]
   seconds, return seconds per run. *)
let time_per_run ?(min_time = 0.2) f =
  f ();
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    f ();
    incr n;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !n

(* Median and interquartile range of a sample (linear interpolation
   between order statistics). *)
let median_iqr xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let q p =
    let x = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float x in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((x -. float_of_int i) *. (a.(j) -. a.(i)))
  in
  (q 0.5, q 0.75 -. q 0.25)

(* Bechamel helper: run the given tests, print ns/run per test. *)
let bechamel_run tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"bench" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) -> row "  %-40s %12.1f ns/run\n" name ns)
    (List.sort compare rows)

(* Circuit builders used across sections ------------------------------- *)

let ripple_netlist n =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let module A = Hydra_circuits.Arith.Make (G) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let cla_netlist ~network n =
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let module A = Hydra_circuits.Arith.Make (G) in
  let cout, sums = A.cla_add ~network G.zero (List.combine xs ys) in
  N.of_graph
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

(* A wide synthetic workload: [copies] independent [width]-bit CLA adders
   with registered outputs, giving wide levelized ranks for E10. *)
let wide_adder_netlist ~copies ~width =
  let module A = Hydra_circuits.Arith.Make (G) in
  let outs = ref [] in
  for c = 0 to copies - 1 do
    let xs = List.init width (fun i -> G.input (Printf.sprintf "x%d_%d" c i)) in
    let ys = List.init width (fun i -> G.input (Printf.sprintf "y%d_%d" c i)) in
    let cout, sums =
      A.cla_add ~network:P.Kogge_stone G.zero (List.combine xs ys)
    in
    let regd = List.map G.dff (cout :: sums) in
    outs := List.mapi (fun i s -> (Printf.sprintf "o%d_%d" c i, s)) regd @ !outs
  done;
  N.of_graph ~outputs:!outs

(* E1 ------------------------------------------------------------------- *)

let e1 () =
  section "E1" "Figure 1 circuit: out = and2 (inv a) b";
  let tt =
    Bit.truth_table ~inputs:2 (fun v ->
        match v with [ a; b ] -> [ Bit.and2 (Bit.inv a) b ] | _ -> assert false)
  in
  row "  a b | out\n";
  List.iter
    (fun (ins, outs) ->
      row "  %s | %s\n"
        (String.concat " " (List.map (fun b -> if b then "1" else "0") ins))
        (Bitvec.to_string outs))
    tt;
  D.reset ();
  let out = D.and2 (D.inv D.input) D.input in
  let r = D.report [ out ] in
  row "  path depth: %d gate delays, %d gates\n" r.D.critical_path r.D.gates

(* E2 ------------------------------------------------------------------- *)

let e2 () =
  section "E2" "Figure 2 multiplexer";
  let module M = Hydra_circuits.Mux.Make (Bit) in
  let tt =
    Bit.truth_table ~inputs:3 (fun v ->
        match v with [ c; x; y ] -> [ M.mux1 c x y ] | _ -> assert false)
  in
  row "  c x y | out\n";
  List.iter
    (fun (ins, outs) ->
      row "  %s | %s\n"
        (String.concat " " (List.map (fun b -> if b then "1" else "0") ins))
        (Bitvec.to_string outs))
    tt;
  let module MD = Hydra_circuits.Mux.Make (D) in
  D.reset ();
  let out = MD.mux1 D.input D.input D.input in
  row "  mux1 path depth: %d (inv -> and -> or)\n"
    (D.report [ out ]).D.critical_path

(* E3 ------------------------------------------------------------------- *)

let e3 () =
  section "E3" "reg1: stream semantics of feedback (paper 4.1/4.2)";
  let module R = Hydra_circuits.Regs.Make (S) in
  let ld = [ true; false; false; true; false; false ] in
  let x = [ true; false; false; false; false; false ] in
  let rows =
    S.simulate ~inputs:[ ld; x ] (fun ins ->
        match ins with [ l; v ] -> [ R.reg1 l v ] | _ -> assert false)
  in
  row "  cycle: ld x | reg1 output\n";
  List.iteri
    (fun i out ->
      row "  %5d:  %d %d | %d\n" i
        (Bool.to_int (List.nth ld i))
        (Bool.to_int (List.nth x i))
        (Bool.to_int (List.hd out)))
    rows;
  row "  (power-up 0; loads on ld=1; feedback is well founded)\n"

(* E4 ------------------------------------------------------------------- *)

let e4 () =
  section "E4" "netlist of the Figure 1 circuit, paper 4-tuple format";
  let a = G.input "a" and b = G.input "b" in
  let nl = N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ] in
  print_endline (F.to_paper_string nl)

(* E5 ------------------------------------------------------------------- *)

let e5 () =
  section "E5" "path-depth analysis: ripple adder critical path is linear";
  row "  %-6s %-12s %-12s %-10s\n" "n" "depth(Depth)" "depth(netl.)" "gates";
  List.iter
    (fun n ->
      let module A = Hydra_circuits.Arith.Make (D) in
      D.reset ();
      let ins = List.init n (fun _ -> (D.input, D.input)) in
      let cout, sums = A.ripple_add D.zero ins in
      let r = D.report (cout :: sums) in
      let nl_cp = L.critical_path (ripple_netlist n) in
      row "  %-6d %-12d %-12d %-10d\n" n r.D.critical_path nl_cp r.D.gates)
    [ 4; 8; 16; 32; 64 ]

(* E6 ------------------------------------------------------------------- *)

let e6 () =
  section "E6" "rippleAdd4 (explicit) = mscanr fullAdd (pattern), paper 5";
  let adder build =
    {
      Equiv.apply =
        (fun (type a) (module C : Hydra_core.Signal_intf.COMB with type t = a)
             v ->
          let module A = Hydra_circuits.Arith.Make (C) in
          let cin = List.hd v in
          let xs, ys = P.split_at 4 (List.tl v) in
          let cout, sums =
            match build with
            | `Explicit -> A.ripple_add4 cin (List.combine xs ys)
            | `Pattern -> A.ripple_add cin (List.combine xs ys)
          in
          cout :: sums);
    }
  in
  (match Equiv.bdd_equiv ~inputs:9 (adder `Explicit) (adder `Pattern) with
  | Equiv.Equivalent -> row "  BDD proof: EQUIVALENT (all 2^9 inputs)\n"
  | Equiv.Inequivalent _ -> row "  BDD proof: INEQUIVALENT (!!)\n");
  match Equiv.exhaustive ~inputs:9 (adder `Explicit) (adder `Pattern) with
  | Equiv.Equivalent -> row "  exhaustive check: EQUIVALENT\n"
  | Equiv.Inequivalent _ -> row "  exhaustive check: INEQUIVALENT (!!)\n"

(* E7 ------------------------------------------------------------------- *)

let e7 () =
  section "E7" "register file regfile1 (recursive, paper 5)";
  let module R = Hydra_circuits.Regs.Make (G) in
  List.iter
    (fun k ->
      let ld = G.input "ld" in
      let d = List.init k (fun i -> G.input (Printf.sprintf "d%d" i)) in
      let sa = List.init k (fun i -> G.input (Printf.sprintf "sa%d" i)) in
      let sb = List.init k (fun i -> G.input (Printf.sprintf "sb%d" i)) in
      let x = G.input "x" in
      let a, b = R.regfile1 k ld d sa sb x in
      let nl = N.of_graph ~outputs:[ ("a", a); ("b", b) ] in
      let st = N.stats nl in
      row "  k=%d: 2^%d registers -> %5d gates, %4d dffs, critical path %d\n" k
        k st.N.gates st.N.dffs (L.critical_path nl))
    [ 0; 2; 4; 6 ]

(* E8 ------------------------------------------------------------------- *)

let sum_loop_src =
  "; sum the integers 1..n (n at label n), result in R1\n\
  \  ldval R1,0[R0]\n\
  \  load R2,n[R0]\n\
   loop: cmpeq R3,R2,R0\n\
  \  jumpt R3,done[R0]\n\
  \  add R1,R1,R2\n\
  \  ldval R4,1[R0]\n\
  \  sub R2,R2,R4\n\
  \  jump loop[R0]\n\
   done: store R1,result[R0]\n\
  \  halt\n\
   n: data 10\n\
   result: data 0\n"

let e8 () =
  section "E8" "the RISC processor (paper 6): gate level vs golden model";
  let module Asm = Hydra_cpu.Asm in
  let module Golden = Hydra_cpu.Golden in
  let module Driver = Hydra_cpu.Driver in
  let program = Asm.assemble sum_loop_src in
  row "  program: sum 1..10 (%d words)\n" (List.length program);
  let res = Driver.run_structural ~mem_bits:6 program in
  let g = Golden.create ~mem_words:64 () in
  Golden.load_program g program;
  let golden_events = Golden.run g in
  row "  gate level: halted=%b in %d cycles\n" res.Driver.halted
    res.Driver.cycles;
  row "  golden:     halted=%b, predicted %d cycles, %d instructions\n"
    g.Golden.halted g.Golden.cycles g.Golden.instructions;
  row "  R1 (gate level) = %d, R1 (golden) = %d\n"
    (Driver.final_registers res).(1)
    (Golden.reg g 1);
  row "  event streams identical: %b\n" (res.Driver.events = golden_events);
  row "  trace (first 8 post-fetch cycles):\n";
  List.iteri
    (fun i e -> if i < 8 then row "  %s\n" (Driver.trace_fmt e))
    res.Driver.trace;
  (* netlist statistics of the whole system *)
  let module SysG = Hydra_cpu.System.Make (G) in
  let word n = List.init 16 (fun i -> G.input (Printf.sprintf "%s%d" n i)) in
  let outs =
    SysG.system ~mem_bits:6
      {
        SysG.start = G.input "start";
        dma = G.input "dma";
        dma_a = word "da";
        dma_d = word "dd";
      }
  in
  let nl =
    N.of_graph
      ~outputs:
        (("halted", outs.SysG.halted)
        :: List.mapi
             (fun i s -> (Printf.sprintf "pc%d" i, s))
             outs.SysG.dp.SysG.D.pc)
  in
  let st = N.stats nl in
  row
    "  full system netlist (64-word memory): %d components (%d gates, %d dffs)\n"
    st.N.total st.N.gates st.N.dffs;
  row "  critical path: %d gate delays\n" (L.critical_path nl)

(* E9 ------------------------------------------------------------------- *)

let e9 () =
  section "E9" "conciseness claim: CPU circuit specification size";
  let count file =
    try
      let ic = open_in file in
      let n = ref 0 and in_comment = ref false in
      (try
         while true do
           let line = String.trim (input_line ic) in
           let starts p =
             String.length line >= String.length p
             && String.sub line 0 (String.length p) = p
           in
           let ends p =
             String.length line >= String.length p
             && String.sub line (String.length line - String.length p)
                  (String.length p)
                = p
           in
           if !in_comment then begin
             if ends "*)" then in_comment := false
           end
           else if line = "" then ()
           else if starts "(*" then begin
             if not (ends "*)") then in_comment := true
           end
           else incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n
    with Sys_error _ -> 0
  in
  let files =
    [
      "lib/cpu/datapath.ml"; "lib/cpu/control.ml"; "lib/cpu/control_circuit.ml";
      "lib/cpu/system.ml";
    ]
  in
  let total =
    List.fold_left
      (fun acc f ->
        let n = count f in
        row "  %-30s %4d code lines\n" f n;
        acc + n)
      0 files
  in
  row "  total CPU circuit specification: %d lines\n" total;
  row "  (paper claims ~200 lines of Hydra; OCaml is less terse than Haskell\n";
  row "   and our control algorithm is explicit data rather than quoted code)\n"

(* E10 ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "parallel simulation (paper 4.3): fork-join pool vs SPMD";
  let cores = Domain.recommended_domain_count () in
  row "  host parallelism: %d core(s)%s\n" cores
    (if cores = 1 then
       " — wall-clock speedup impossible here; this measures coordination overhead"
     else "");
  let nl = wide_adder_netlist ~copies:256 ~width:16 in
  let st = N.stats nl in
  row "  workload: 256 independent 16-bit CLA adders (%d gates)\n" st.N.gates;
  let cycles = 20 in
  let seq_sim = Compiled.create nl in
  let t_seq =
    time_per_run (fun () ->
        Compiled.reset seq_sim;
        for _ = 1 to cycles do
          Compiled.step seq_sim
        done)
  in
  row "  %-28s %8.2f ms per %d cycles  (1.00x)\n" "sequential compiled"
    (t_seq *. 1000.0) cycles;
  record ~section:"E10" ~name:"sequential compiled"
    ~value:(float_of_int cycles /. t_seq)
    ~unit_:"cycles/s" ~domains:1 ();
  (* always include the host's recommended domain count in the sweep *)
  let domain_counts =
    List.sort_uniq compare (if cores = 1 then [ 2 ] else [ 2; 4; cores ])
  in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let psim = Parallel_sim.create ~pool nl in
      let t_par =
        time_per_run (fun () ->
            Parallel_sim.reset psim;
            for _ = 1 to cycles do
              Parallel_sim.step psim
            done)
      in
      Pool.shutdown pool;
      record ~section:"E10"
        ~name:(Printf.sprintf "fork-join pool %d domains" domains)
        ~value:(float_of_int cycles /. t_par)
        ~unit_:"cycles/s" ~domains ();
      row "  %-28s %8.2f ms per %d cycles  (%.2fx)\n"
        (Printf.sprintf "fork-join pool (%d domains)" domains)
        (t_par *. 1000.0) cycles (t_seq /. t_par))
    domain_counts;
  List.iter
    (fun domains ->
      let ssim = Hydra_engine.Spmd.create ~domains nl in
      let t_spmd =
        time_per_run (fun () ->
            Hydra_engine.Spmd.reset ssim;
            for _ = 1 to cycles do
              Hydra_engine.Spmd.step ssim
            done)
      in
      Hydra_engine.Spmd.shutdown ssim;
      record ~section:"E10"
        ~name:(Printf.sprintf "SPMD spin-barrier %d domains" domains)
        ~value:(float_of_int cycles /. t_spmd)
        ~unit_:"cycles/s" ~domains ();
      row "  %-28s %8.2f ms per %d cycles  (%.2fx)\n"
        (Printf.sprintf "SPMD spin-barrier (%d dom.)" domains)
        (t_spmd *. 1000.0) cycles (t_seq /. t_spmd))
    domain_counts

(* E11 ------------------------------------------------------------------ *)

let e11 () =
  section "E11" "carry-lookahead family (ref [23]): depth vs size";
  row "  %-6s %-14s %-8s %-8s\n" "n" "network" "depth" "gates";
  List.iter
    (fun n ->
      let adders =
        ("ripple", `R)
        :: List.map
             (fun net -> (P.prefix_network_name net, `C net))
             P.all_prefix_networks
      in
      List.iter
        (fun (name, which) ->
          let module A = Hydra_circuits.Arith.Make (D) in
          D.reset ();
          let ins = List.init n (fun _ -> (D.input, D.input)) in
          let cout, sums =
            match which with
            | `R -> A.ripple_add D.zero ins
            | `C net -> A.cla_add ~network:net D.zero ins
          in
          let r = D.report (cout :: sums) in
          row "  %-6d %-14s %-8d %-8d\n" n name r.D.critical_path r.D.gates)
        adders;
      row "\n")
    [ 8; 16; 32; 64 ]

(* E12 ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "simulator throughput: stream vs interpreted vs compiled";
  let n = 32 in
  let nl = cla_netlist ~network:P.Kogge_stone n in
  let cycles = 50 in
  let input_rows =
    List.init cycles (fun t -> List.init (2 * n) (fun i -> (t + i) mod 3 = 0))
  in
  let cols = Bitvec.columns input_rows in
  let names =
    List.init n (fun i -> Printf.sprintf "x%d" i)
    @ List.init n (fun i -> Printf.sprintf "y%d" i)
  in
  let inputs = List.combine names cols in
  let t_stream =
    time_per_run (fun () ->
        ignore
          (S.simulate ~inputs:cols ~cycles (fun ins ->
               let module A = Hydra_circuits.Arith.Make (S) in
               let xs, ys = P.split_at n ins in
               let cout, sums =
                 A.cla_add ~network:P.Kogge_stone S.zero (List.combine xs ys)
               in
               cout :: sums)))
  in
  let interp = Interp.create nl in
  let t_interp =
    time_per_run (fun () -> ignore (Interp.run interp ~inputs ~cycles))
  in
  let compiled = Compiled.create nl in
  let t_compiled =
    time_per_run (fun () -> ignore (Compiled.run compiled ~inputs ~cycles))
  in
  let per name t =
    record ~section:"E12" ~name ~value:(float_of_int cycles /. t)
      ~unit_:"cycles/s" ();
    row "  %-28s %10.1f us per %d cycles (%8.0f cycles/s)\n" name (t *. 1e6)
      cycles
      (float_of_int cycles /. t)
  in
  per "stream semantics (rebuild)" t_stream;
  per "netlist interpreter" t_interp;
  per "compiled (levelized)" t_compiled;
  row "  bechamel (single cycle, 32-bit kogge-stone adder):\n";
  let open Bechamel in
  bechamel_run
    [
      Test.make ~name:"compiled step"
        (Staged.stage (fun () -> Compiled.step compiled));
      Test.make ~name:"interp step" (Staged.stage (fun () -> Interp.step interp));
    ]

(* E13 ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "BDD equivalence checking scale (paper 4.6)";
  row "  %-6s %-22s %-12s\n" "n" "proof" "time";
  (* variable order matters: interleaving the operand bits keeps adder
     BDDs linear (separating them is exponential) *)
  List.iter
    (fun n ->
      let adder build =
        {
          Equiv.apply =
            (fun (type a)
                 (module C : Hydra_core.Signal_intf.COMB with type t = a) v ->
              let module A = Hydra_circuits.Arith.Make (C) in
              let xs, ys = P.split_at n (P.unriffle v) in
              let cout, sums =
                match build with
                | `Ripple -> A.ripple_add C.zero (List.combine xs ys)
                | `Cla ->
                  A.cla_add ~network:P.Sklansky C.zero (List.combine xs ys)
              in
              cout :: sums);
        }
      in
      let t =
        time_per_run ~min_time:0.1 (fun () ->
            assert (
              Equiv.is_equivalent
                (Equiv.bdd_equiv ~inputs:(2 * n) (adder `Ripple) (adder `Cla))))
      in
      row "  %-6d %-22s %8.2f ms\n" n "ripple = sklansky CLA" (t *. 1000.0))
    [ 4; 8; 16; 24; 32 ]

(* E14 ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "gate-delay model: settling and glitches (paper 3)";
  let n = 16 in
  let nl = ripple_netlist n in
  let cp = L.critical_path nl in
  let sim = Event.create nl in
  let set_word prefix v =
    List.iteri
      (fun i b -> Event.set_input sim (Printf.sprintf "%s%d" prefix i) b)
      (Bitvec.of_int ~width:n v)
  in
  set_word "x" 0;
  set_word "y" 0;
  ignore (Event.step sim);
  set_word "x" ((1 lsl n) - 1);
  set_word "y" 1;
  let r = Event.step sim in
  row "  16-bit ripple adder, carry-propagate worst case:\n";
  row "  critical path %d; settled at t=%d; %d transitions, %d glitches\n" cp
    r.Event.settle_time r.Event.transitions r.Event.glitches;
  row "  settle <= critical path: %b\n" (r.Event.settle_time <= cp);
  let nlc = cla_netlist ~network:P.Sklansky n in
  let simc = Event.create nlc in
  let set_word_c prefix v =
    List.iteri
      (fun i b -> Event.set_input simc (Printf.sprintf "%s%d" prefix i) b)
      (Bitvec.of_int ~width:n v)
  in
  set_word_c "x" 0;
  set_word_c "y" 0;
  ignore (Event.step simc);
  set_word_c "x" ((1 lsl n) - 1);
  set_word_c "y" 1;
  let rc = Event.step simc in
  row "  sklansky CLA settles at t=%d (critical path %d)\n" rc.Event.settle_time
    (L.critical_path nlc)

(* E15 ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "bitonic sorting network via butterfly pattern";
  let module Sorter = Hydra_circuits.Sorter.Make (Bit) in
  let input = [ 7; 2; 9; 1; 12; 3; 8; 5 ] in
  let sorted =
    List.map Bitvec.to_int
      (Sorter.sort (List.map (Bitvec.of_int ~width:4) input))
  in
  row "  sort %s -> %s\n"
    (String.concat "," (List.map string_of_int input))
    (String.concat "," (List.map string_of_int sorted));
  row "  %-6s %-8s %-8s\n" "n" "depth" "gates";
  let module SD = Hydra_circuits.Sorter.Make (D) in
  List.iter
    (fun n ->
      D.reset ();
      let words = List.init n (fun _ -> List.init 8 (fun _ -> D.input)) in
      let outs = SD.sort words in
      let r = D.report (List.concat outs) in
      row "  %-6d %-8d %-8d\n" n r.D.critical_path r.D.gates)
    [ 2; 4; 8; 16; 32 ]

(* E16 ------------------------------------------------------------------ *)

let e16 () =
  section "E16" "stuck-at fault simulation: test quality (extension)";
  let module Fault = Hydra_verify.Fault in
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init 8 (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init 8 (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  let nl =
    N.of_graph
      ~outputs:
        (("cout", cout)
        :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)
  in
  row "  circuit: 8-bit ripple adder, %d stuck-at faults\n"
    (List.length (Fault.all_faults nl));
  row "  %-10s %-10s\n" "vectors" "coverage";
  List.iter
    (fun n ->
      let vectors = Fault.random_vectors ~seed:7 ~inputs:16 n in
      let cov = Fault.coverage nl ~vectors in
      row "  %-10d %6.1f%%\n" n (100.0 *. Fault.ratio cov))
    [ 1; 2; 4; 8; 16; 32 ];
  let tests, cov = Fault.generate_tests ~target:1.0 nl in
  row "  greedy generation: %d vectors reach %.1f%% coverage\n"
    (List.length tests)
    (100.0 *. Fault.ratio cov)

(* E17 ------------------------------------------------------------------ *)

let e17 () =
  section "E17" "X-propagation power-up analysis of the control circuit (extension)";
  let module Xsim = Hydra_engine.Xsim in
  let module CC = Hydra_cpu.Control_circuit.Make (G) in
  let build () =
    let start = G.input "start" in
    let ir_op = List.init 4 (fun i -> G.input (Printf.sprintf "op%d" i)) in
    let cond = G.input "cond" in
    let outs = CC.synthesize Hydra_cpu.Control.algorithm ~start ~ir_op ~cond in
    N.of_graph ~outputs:(("halted", outs.CC.halted) :: outs.CC.states)
  in
  let run respect_init =
    let sim = Xsim.create ~respect_init (build ()) in
    let drive s =
      Xsim.set_input_bool sim "start" s;
      for i = 0 to 3 do
        Xsim.set_input_bool sim (Printf.sprintf "op%d" i) false
      done;
      Xsim.set_input_bool sim "cond" false
    in
    drive true;
    let counts = ref [ Xsim.unknown_dffs sim ] in
    Xsim.step sim;
    drive false;
    for _ = 1 to 7 do
      counts := Xsim.unknown_dffs sim :: !counts;
      Xsim.step sim
    done;
    List.rev !counts
  in
  let fmt l = String.concat " " (List.map string_of_int l) in
  row "  unknown state flip flops per cycle:\n";
  row "  %-26s %s\n" "X power-up:" (fmt (run false));
  row "  %-26s %s\n" "documented dff0 power-up:" (fmt (run true));
  row "  (with X power-up the sticky halt latch stays unknown: the design\n";
  row "   relies on the paper's dff0 = 0 guarantee, and the analysis shows it)\n"

(* E18 ------------------------------------------------------------------ *)

let e18 () =
  section "E18" "multiplier ablation + netlist optimizer (extension)";
  row "  %-6s %-16s %-8s %-8s\n" "n" "multiplier" "depth" "gates";
  List.iter
    (fun n ->
      List.iter
        (fun (name, f) ->
          D.reset ();
          let xs = List.init n (fun _ -> D.input) in
          let ys = List.init n (fun _ -> D.input) in
          let r = D.report (f xs ys) in
          row "  %-6d %-16s %-8d %-8d\n" n name r.D.critical_path r.D.gates)
        [
          ("array (ripple)", (fun xs ys ->
               let module A = Hydra_circuits.Arith.Make (D) in
               A.multw xs ys));
          ("wallace + cla", (fun xs ys ->
               let module W = Hydra_circuits.Wallace.Make (D) in
               W.multw xs ys));
        ])
    [ 8; 16; 32 ];
  row "\n  optimizer on generic circuits (gates before -> after):\n";
  let module O = Hydra_netlist.Optimize in
  List.iter
    (fun (name, nl) ->
      let opt = O.optimize nl in
      row "  %-24s %5d -> %5d gates (critical path %d -> %d)\n" name
        (N.stats nl).N.gates
        (N.stats opt).N.gates (L.critical_path nl) (L.critical_path opt))
    [
      ("ripple 16", ripple_netlist 16);
      ("cla sklansky 16", cla_netlist ~network:P.Sklansky 16);
      ("cla kogge-stone 32", cla_netlist ~network:P.Kogge_stone 32);
    ]

(* E19 ------------------------------------------------------------------ *)

let e19 () =
  section "E19" "a second complete machine: the stack processor (extension)";
  let module SM = Hydra_cpu.Stack_machine in
  let program =
    [
      SM.Spush 0; SM.Spush 60; SM.Sstore; SM.Spush 10;
      SM.Sdup; SM.Sjz 15; SM.Sdup; SM.Spush 60; SM.Sload; SM.Sadd;
      SM.Spush 60; SM.Sstore; SM.Spush 1; SM.Ssub; SM.Sjump 4; SM.Shalt;
    ]
  in
  let c = SM.Driver.run ~mem_bits:6 program in
  let g = SM.Golden.create ~mem_words:64 () in
  SM.Golden.load_program g (SM.encode_program program);
  SM.Golden.run g;
  row "  program: sum 10..1 via the stack (%d instructions)\n"
    (List.length program);
  row "  gate level: halted=%b in %d cycles; golden predicts %d\n"
    c.SM.Driver.halted c.SM.Driver.cycles g.SM.Golden.cycles;
  row "  mem[60] = %d (circuit writes agree: %b)\n" g.SM.Golden.mem.(60)
    (List.exists (fun (a, v) -> a = 60 && v = 55) c.SM.Driver.mem_writes);
  (* netlist statistics *)
  let module SMG = SM.Make (G) in
  let word nm = List.init 16 (fun i -> G.input (Printf.sprintf "%s%d" nm i)) in
  let outs =
    SMG.system ~mem_bits:6
      { SMG.start = G.input "start"; dma = G.input "dma";
        dma_a = word "da"; dma_d = word "dd" }
  in
  let nl =
    N.of_graph
      ~outputs:
        (("halted", outs.SMG.halted)
        :: List.mapi (fun i s -> (Printf.sprintf "top%d" i, s)) outs.SMG.top)
  in
  let st = N.stats nl in
  row "  netlist: %d components (%d gates, %d dffs), critical path %d\n"
    st.N.total st.N.gates st.N.dffs (L.critical_path nl);
  row "  (control synthesized by the same delay-element compiler as the RISC)\n"

(* E20 ------------------------------------------------------------------ *)

(* A 64-bit Wallace-tree multiplier with registered outputs: a deep, wide
   combinational cone feeding dffs — the representative "big sequential
   circuit" for engine throughput. *)
let wallace_netlist n =
  let module W = Hydra_circuits.Wallace.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let prod = W.multw xs ys in
  let regd = List.map G.dff prod in
  N.of_graph
    ~outputs:(List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) regd)

(* The full section-6 RISC system netlist (gate-level RAM included), as in
   E8. *)
let cpu_netlist () =
  let module SysG = Hydra_cpu.System.Make (G) in
  let word n = List.init 16 (fun i -> G.input (Printf.sprintf "%s%d" n i)) in
  let outs =
    SysG.system ~mem_bits:6
      {
        SysG.start = G.input "start";
        dma = G.input "dma";
        dma_a = word "da";
        dma_d = word "dd";
      }
  in
  N.of_graph
    ~outputs:
      (("halted", outs.SysG.halted)
      :: List.mapi (fun i s -> (Printf.sprintf "pc%d" i, s)) outs.SysG.dp.SysG.D.pc)

(* Measure one engine's throughput in gate evaluations per second: for
   the wide engine each pass of the gate arrays evaluates every gate in
   62 lanes at once, so its per-pass work counts 62x. *)
let e20 ?(min_time = 0.2) () =
  section "E20"
    "word-parallel wide engine: gate-evals/sec, scalar vs wide vs pool";
  row "  (%d lanes per word; `bench: scalar Compiled vs Compiled_wide vs \
       Parallel_sim`)\n"
    Wide.lanes;
  let bench_circuit cname nl ~cycles =
    let st = N.stats nl in
    let gates = float_of_int st.N.gates in
    row "  %s: %d gates, %d dffs, critical path %d\n" cname st.N.gates
      st.N.dffs (L.critical_path nl);
    let per_run = gates *. float_of_int cycles in
    let entry ?domains ?lanes name evals_per_sec baseline =
      record ?domains ?lanes ~section:"E20"
        ~name:(Printf.sprintf "%s %s" cname name)
        ~value:evals_per_sec ~unit_:"gate-evals/s" ();
      row "  %-28s %12.3g gate-evals/s  (%6.2fx)\n" name evals_per_sec
        (evals_per_sec /. baseline);
      evals_per_sec
    in
    let scalar = Compiled.create nl in
    let t_scalar =
      time_per_run ~min_time (fun () ->
          Compiled.reset scalar;
          for _ = 1 to cycles do
            Compiled.step scalar
          done)
    in
    let base = entry "compiled (scalar)" (per_run /. t_scalar) (per_run /. t_scalar) in
    let scalar_opt = Compiled.create ~optimize:true nl in
    let t_opt =
      time_per_run ~min_time (fun () ->
          Compiled.reset scalar_opt;
          for _ = 1 to cycles do
            Compiled.step scalar_opt
          done)
    in
    (* optimized engine does less work per cycle; evals/sec still counts
       the *original* gates — it measures effective circuit throughput *)
    ignore (entry "compiled ~optimize" (per_run /. t_opt) base);
    let wide = Wide.create nl in
    let t_wide =
      time_per_run ~min_time (fun () ->
          Wide.reset wide;
          for _ = 1 to cycles do
            Wide.step wide
          done)
    in
    let wide_rate = per_run *. float_of_int Wide.lanes /. t_wide in
    ignore (entry ~lanes:Wide.lanes "compiled_wide (62 lanes)" wide_rate base);
    let wide_opt = Wide.create ~optimize:true nl in
    let t_wide_opt =
      time_per_run ~min_time (fun () ->
          Wide.reset wide_opt;
          for _ = 1 to cycles do
            Wide.step wide_opt
          done)
    in
    ignore
      (entry ~lanes:Wide.lanes "compiled_wide ~optimize"
         (per_run *. float_of_int Wide.lanes /. t_wide_opt)
         base);
    (* parallel_sim runs at the host's full recommended parallelism *)
    let rec_domains = Domain.recommended_domain_count () in
    let pool = Pool.create ~domains:rec_domains () in
    let psim = Parallel_sim.create ~pool nl in
    let t_par =
      time_per_run ~min_time (fun () ->
          Parallel_sim.reset psim;
          for _ = 1 to cycles do
            Parallel_sim.step psim
          done)
    in
    ignore
      (entry ~domains:rec_domains
         (Printf.sprintf "parallel_sim (%d domains)" rec_domains)
         (per_run /. t_par) base);
    (* batch-level parallelism on top of lane packing: the sharded
       engine's persistent per-domain replicas stepping raw cycles — no
       per-batch replica allocation and no per-cycle output
       materialization, so a 1-domain run matches the single wide
       instance instead of trailing it *)
    let module Sharded = Hydra_engine.Sharded in
    let sh =
      Sharded.create ~scheduler:(Hydra_engine.Scheduler.of_pool pool) nl
    in
    let nbatches = 4 * Sharded.domains sh in
    let t_batched =
      time_per_run ~min_time (fun () ->
          ignore (Sharded.step_batches sh ~batches:nbatches ~cycles))
    in
    ignore
      (entry ~domains:(Sharded.domains sh) ~lanes:Wide.lanes
         (Printf.sprintf "wide x %d batches (sharded)" nbatches)
         (per_run
         *. float_of_int Wide.lanes
         *. float_of_int nbatches
         /. t_batched)
         base);
    Sharded.shutdown sh;
    Pool.shutdown pool;
    row "  wide vs scalar speedup: %.1fx (acceptance floor: 10x)\n"
      (wide_rate /. base)
  in
  bench_circuit "wallace64" (wallace_netlist 64) ~cycles:5;
  bench_circuit "cpu" (cpu_netlist ()) ~cycles:20

(* E21 ------------------------------------------------------------------ *)

(* The sharded engine's scaling curve: 62 lanes x N domains, batch-level
   sharding with persistent replicas (no per-cycle or per-level
   barriers).  Total work is held constant across domain counts, so the
   curve isolates scheduling cost/gain. *)
let e21 ?(min_time = 0.2) () =
  section "E21" "domain-sharded wide engine: scaling curve (62 lanes x domains)";
  let module Sharded = Hydra_engine.Sharded in
  let rec_domains = Domain.recommended_domain_count () in
  row "  host parallelism: %d core(s) (Domain.recommended_domain_count)%s\n"
    rec_domains
    (if rec_domains = 1 then
       " — extra domains can only add scheduling overhead on this host"
     else "");
  let domain_counts = [ 1; 2; 4; 8 ] in
  (* wallace64: raw stepping throughput over a fixed set of lane-batches *)
  let nl = wallace_netlist 64 in
  let st = N.stats nl in
  let cycles = 5 and batches = 8 in
  let per_run =
    float_of_int st.N.gates
    *. float_of_int cycles
    *. float_of_int Wide.lanes
    *. float_of_int batches
  in
  row "  wallace64: %d gates; %d batches x %d cycles x %d lanes per run\n"
    st.N.gates batches cycles Wide.lanes;
  (* like-for-like baseline: one engine running the same fresh-state
     batches inline (reset + [cycles] steps each), no scheduler *)
  let wide = Wide.create nl in
  let t_single =
    time_per_run ~min_time (fun () ->
        for _ = 1 to batches do
          Wide.reset wide;
          for _ = 1 to cycles do
            Wide.step wide
          done
        done)
  in
  let base_rate = per_run /. t_single in
  record ~section:"E21" ~name:"wallace64 wide single instance"
    ~value:base_rate ~unit_:"gate-evals/s" ~domains:1 ~lanes:Wide.lanes ();
  row "  %-34s %12.3g gate-evals/s  (1.00x)\n" "wide single instance" base_rate;
  List.iter
    (fun d ->
      let sh = Sharded.create ~domains:d nl in
      let t =
        time_per_run ~min_time (fun () ->
            ignore (Sharded.step_batches sh ~batches ~cycles))
      in
      Sharded.shutdown sh;
      let rate = per_run /. t in
      record ~section:"E21"
        ~name:(Printf.sprintf "wallace64 sharded %d domains" d)
        ~value:rate ~unit_:"gate-evals/s" ~domains:d ~lanes:Wide.lanes ();
      row "  %-34s %12.3g gate-evals/s  (%5.2fx)\n"
        (Printf.sprintf "sharded (%d domains)" d)
        rate (rate /. base_rate))
    domain_counts;
  (* the CPU system: many machine-language programs at once *)
  let module Asm = Hydra_cpu.Asm in
  let module Driver = Hydra_cpu.Driver in
  let program = Asm.assemble sum_loop_src in
  let n_addr = List.length program - 2 in
  let nprogs = 2 * Wide.lanes in
  let programs =
    Array.init nprogs (fun k ->
        List.mapi (fun i w -> if i = n_addr then 1 + (k mod 10) else w) program)
  in
  let sys_nl = Driver.system_netlist ~mem_bits:6 () in
  row "  cpu system: %d sum-loop programs, one per lane of %d-lane replicas\n" nprogs
    Wide.lanes;
  List.iter
    (fun d ->
      let sh = Sharded.create ~domains:d sys_nl in
      let results = ref [||] in
      let t =
        time_per_run ~min_time (fun () ->
            results := Driver.run_many ~sharded:sh ~max_cycles:1000 programs)
      in
      Sharded.shutdown sh;
      let all_halted =
        Array.for_all (fun r -> r.Driver.halted) !results
      in
      let rate = float_of_int nprogs /. t in
      record ~section:"E21"
        ~name:(Printf.sprintf "cpu run_many %d domains" d)
        ~value:rate ~unit_:"programs/s" ~domains:d ~lanes:Wide.lanes ();
      row "  %-34s %10.1f programs/s  (all halted: %b)\n"
        (Printf.sprintf "cpu run_many (%d domains)" d)
        rate all_halted)
    domain_counts

(* E23 ------------------------------------------------------------------ *)

(* Lane-parallel fault campaigns: `Campaign.run` grades up to 61 faults
   per wide pass through per-lane force masks (lane 0 golden), vs the
   historic loop that rewrites the netlist and recompiles an engine once
   per fault.  Both graders run the identical task — stuck-at faults
   against the same test vectors — so faults/s is directly comparable;
   the recompile baseline is timed on a small fault subset and scaled to
   per-fault cost (running it over all of wallace64's faults would take
   minutes). *)
let e23 ?(min_time = 0.2) () =
  section "E23" "fault campaigns: lane-parallel grading vs recompile loop";
  let module C = Hydra_verify.Campaign in
  let module Fault = Hydra_verify.Fault in
  let module Scheduler = Hydra_engine.Scheduler in
  let nl = wallace_netlist 64 in
  let st = N.stats nl in
  let faults = C.all_stuck_at nl in
  let nfaults = List.length faults in
  let nvectors = 8 in
  let vectors =
    Fault.random_vectors ~seed:11 ~inputs:(List.length nl.N.inputs) nvectors
  in
  let stimulus, cycles = C.stimulus_of_vectors nl vectors in
  row "  wallace64: %d components, %d stuck-at faults, %d test vectors\n"
    st.N.total nfaults nvectors;
  let scheduler = Scheduler.create () in
  let cache = Hydra_engine.Cache.create () in
  let report = ref None in
  let t_campaign =
    time_per_run ~min_time (fun () ->
        report := Some (C.run ~scheduler ~cache nl ~faults ~stimulus ~cycles))
  in
  let sh_domains = Scheduler.domains scheduler in
  Scheduler.shutdown scheduler;
  let r = Option.get !report in
  row "  campaign verdicts: %d detected, %d latent, %d masked (%.1f%% coverage)\n"
    r.C.detected r.C.latent r.C.masked
    (100.0 *. C.coverage_ratio r);
  let campaign_rate = float_of_int nfaults /. t_campaign in
  record ~section:"campaign" ~lanes:Wide.lanes ~domains:sh_domains
    ~name:"wallace64 stuck-at campaign" ~value:campaign_rate ~unit_:"faults/s"
    ();
  row "  %-36s %10.1f faults/s\n" "campaign (62-lane force masks)"
    campaign_rate;
  (* recompile baseline: inject (netlist rewrite) + fresh engine +
     response per fault — exactly `Fault.coverage_recompile`'s per-fault
     work — over an evenly spaced subset *)
  let nsub = 8 in
  let stride = max 1 (nfaults / nsub) in
  let subset =
    List.filteri (fun i _ -> i mod stride = 0 && i / stride < nsub) faults
  in
  let subset =
    List.map
      (function
        | C.Stuck_at { site; value } -> { Fault.site; stuck = value }
        | _ -> assert false)
      subset
  in
  let nsub = List.length subset in
  let t_baseline =
    time_per_run ~min_time (fun () ->
        List.iter
          (fun f ->
            let faulty = Fault.inject nl f in
            ignore (Fault.response faulty ~vectors ~cycles_per_vector:1))
          subset)
  in
  let baseline_rate = float_of_int nsub /. t_baseline in
  record ~section:"campaign" ~name:"wallace64 recompile-loop baseline"
    ~value:baseline_rate ~unit_:"faults/s" ();
  row "  %-36s %10.1f faults/s  (timed on %d faults, scaled)\n"
    "recompile loop (historic)" baseline_rate nsub;
  let speedup = campaign_rate /. baseline_rate in
  record ~section:"campaign" ~lanes:Wide.lanes
    ~name:"wallace64 campaign vs recompile speedup" ~value:speedup ~unit_:"x"
    ();
  row "  campaign vs recompile speedup: %.1fx (acceptance floor: 20x)\n"
    speedup;
  (* the CPU system: SEUs in a sample of datapath/memory state bits while
     the golden lane executes a machine-language program *)
  let module Asm = Hydra_cpu.Asm in
  let module Driver = Hydra_cpu.Driver in
  let sys_nl = Driver.system_netlist ~mem_bits:6 () in
  let program = Asm.assemble sum_loop_src in
  let stim, sys_cycles =
    Driver.program_stimulus ~mem_bits:6 ~max_cycles:400 program
  in
  let dffs = C.dff_sites sys_nl in
  let nsample = 2 * (Wide.lanes - 1) in
  let dstride = max 1 (List.length dffs / nsample) in
  let sampled =
    List.filteri (fun i _ -> i mod dstride = 0 && i / dstride < nsample) dffs
  in
  let at_cycle = List.length program + 10 in
  let seus =
    List.map (fun site -> C.Seu { site; at_cycle }) sampled
  in
  row "  cpu: %d of %d dffs upset at cycle %d over a %d-cycle sum-loop run\n"
    (List.length sampled) (List.length dffs) at_cycle sys_cycles;
  let cpu_report = ref None in
  let t_cpu =
    time_per_run ~min_time (fun () ->
        cpu_report :=
          Some (C.run sys_nl ~faults:seus ~stimulus:stim ~cycles:sys_cycles))
  in
  let cr = Option.get !cpu_report in
  let cpu_rate = float_of_int cr.C.total /. t_cpu in
  record ~section:"campaign" ~lanes:Wide.lanes ~name:"cpu seu sweep"
    ~value:cpu_rate ~unit_:"faults/s" ();
  row "  %-36s %10.1f faults/s  (%d detected, %d latent, %d masked)\n"
    "cpu seu campaign" cpu_rate cr.C.detected cr.C.latent cr.C.masked;
  (* The cpu-seu-gated workload's request shape: a 24-word straight-line
     program (4 ldval, 9 register ops, 2 stores, 1 load, halt), SEUs in
     every dff at two cycles, one in each half of a 60-cycle window after
     the program loads, a 300-cycle run limit, on a k=4 slab over a
     2-domain scheduler — gated and ungated.  Each of 10 samples runs all
     8 requests in both flavors, alternating them per request (and which
     goes first per sample) so host drift hits both alike, timed on
     Bechamel's monotonic clock.  Rows: median ms/request with its IQR,
     the engine cycles simulated per request ([chunk_cycles]), and the
     median of the 10 paired gated/ungated ratios. *)
  let module Isa = Hydra_cpu.Isa in
  let module Scheduler = Hydra_engine.Scheduler in
  let straight_line st =
    let reg () = 1 + Random.State.int st 15 in
    let ops = [| Isa.Add; Sub; Inc; Land; Lor; Lxor; Cmplt; Cmpeq; Cmpgt |] in
    Isa.encode_program
      (List.init 4 (fun i ->
           Isa.Rx (Isa.Ldval, i + 1, 0, Random.State.int st 0x10000))
      @ List.init 9 (fun _ ->
            let op = ops.(Random.State.int st (Array.length ops)) in
            let d = reg () in
            let a = reg () in
            Isa.Rrr (op, d, a, reg ()))
      @ List.init 2 (fun j -> Isa.Rx (Isa.Store, reg (), 0, 48 + j))
      @ [ Isa.Rx (Isa.Load, reg (), 0, 48 + Random.State.int st 2);
          Isa.Rrr (Isa.Halt, 0, 0, 0) ])
  in
  let requests =
    List.init 8 (fun i ->
        let st = Random.State.make [| 0x5e; i |] in
        let program = straight_line st in
        let len = List.length program in
        let c1 = len + Random.State.int st 30 in
        let c2 = len + 30 + Random.State.int st 30 in
        let stimulus, cycles =
          Driver.program_stimulus ~mem_bits:6 ~max_cycles:300 program
        in
        let faults =
          List.concat_map
            (fun at_cycle -> List.map (fun site -> C.Seu { site; at_cycle }) dffs)
            [ c1; c2 ]
        in
        (faults, stimulus, cycles))
  in
  let k = 4 in
  let sch = Scheduler.create ~domains:2 () in
  let cache = Hydra_engine.Cache.create () in
  let request gating (faults, stimulus, cycles) =
    C.run ~scheduler:sch ~cache ~engine:(`Slab k) ~gating sys_nl ~faults
      ~stimulus ~cycles
  in
  let now () = Bechamel.Toolkit.Monotonic_clock.get () in
  let flavors = [| true; false |] and nsamples = 10 in
  Array.iter (fun gating -> ignore (request gating (List.hd requests))) flavors;
  let n = float_of_int (List.length requests) in
  let ms = Array.make_matrix 2 nsamples 0.0 and work = Array.make 2 0 in
  let t_start = now () in
  for s = 0 to nsamples - 1 do
    List.iter
      (fun r ->
        List.iter
          (fun f ->
            let t0 = now () in
            let rep = request flavors.(f) r in
            ms.(f).(s) <- ms.(f).(s) +. ((now () -. t0) /. 1e6 /. n);
            if s = 0 then work.(f) <- work.(f) + rep.C.chunk_cycles)
          (if s land 1 = 0 then [ 0; 1 ] else [ 1; 0 ]))
      requests
  done;
  let wall = (now () -. t_start) /. 1e9 in
  Array.iteri
    (fun f gating ->
      let med, iqr = median_iqr ms.(f) in
      let flavor = if gating then "gated" else "ungated" in
      let per_req = float_of_int work.(f) /. n in
      row "  %-36s %10.1f ms/request (IQR %.1f, n=%d)  %6.0f chunk-cycles/request\n"
        (Printf.sprintf "cpu seu request, k=%d %s" k flavor)
        med iqr nsamples per_req;
      record ~section:"campaign" ~domains:2 ~lanes:(62 * k)
        ~name:(Printf.sprintf "cpu seu request k=%d %s" k flavor)
        ~value:med ~unit_:"ms" ~spread:(iqr, nsamples) ~wall_s:wall ~warmup:1
        ();
      record ~section:"campaign" ~lanes:(62 * k)
        ~name:(Printf.sprintf "cpu seu request k=%d %s chunk-cycles" k flavor)
        ~value:per_req ~unit_:"cycles" ~wall_s:wall ~warmup:1 ())
    flavors;
  let ratio, ratio_iqr =
    median_iqr (Array.init nsamples (fun s -> ms.(0).(s) /. ms.(1).(s)))
  in
  row "  %-36s %10.3f x (IQR %.3f, n=%d)\n"
    (Printf.sprintf "cpu seu request, k=%d gated/ungated" k)
    ratio ratio_iqr nsamples;
  record ~section:"campaign" ~domains:2 ~lanes:(62 * k)
    ~name:(Printf.sprintf "cpu seu request k=%d gated/ungated" k)
    ~value:ratio ~unit_:"x" ~spread:(ratio_iqr, nsamples) ~wall_s:wall
    ~warmup:1 ();
  Scheduler.shutdown sch

(* E24 ------------------------------------------------------------------ *)

(* The slab engine: K consecutive 62-lane words per signal in one flat
   array, so one kernel pass simulates 62*K instances with the per-gate
   index loads amortized K ways.  Three measurements:

   - wallace64 throughput, slab K in {1,4,8,16} vs the wide engine, all
     rates in gate-evals/s at equal total lanes (a wide engine covering
     62*K lanes runs K passes at its 62-lane rate, so rates compare
     directly);
   - the gating overhead on wallace64 driven with fresh random inputs
     every cycle — the worst case for change detection, since every
     rank re-evaluates *and* pays the compare (acceptance: within 10%
     of the ungated slab);
   - the gating win on an idle-heavy workload — the section-6 CPU
     system sitting quiescent (start never asserted), where a settled
     gated engine reduces to a per-rank bool scan plus the dff latch
     loop (acceptance: >= 2x over the ungated slab). *)
let e24 ?(min_time = 0.2) () =
  section "E24" "slab engine: K-word slabs and activity gating vs wide";
  let module Slab = Hydra_engine.Slab in
  let nl = wallace_netlist 64 in
  let st = N.stats nl in
  let gates = float_of_int st.N.gates in
  let cycles = 5 in
  row "  wallace64: %d gates, %d dffs, critical path %d\n" st.N.gates
    st.N.dffs (L.critical_path nl);
  let per_lane_run = gates *. float_of_int cycles in
  let entry ?lanes name rate baseline =
    record ?lanes ~section:"E24" ~name ~value:rate ~unit_:"gate-evals/s" ();
    row "  %-38s %12.3g gate-evals/s  (%5.2fx)\n" name rate (rate /. baseline);
    rate
  in
  let wide = Wide.create nl in
  let t_wide =
    time_per_run ~min_time (fun () ->
        Wide.reset wide;
        for _ = 1 to cycles do
          Wide.step wide
        done)
  in
  let wide_rate = per_lane_run *. float_of_int Wide.lanes /. t_wide in
  ignore (entry ~lanes:Wide.lanes "wallace64 wide (62 lanes)" wide_rate wide_rate);
  List.iter
    (fun kk ->
      let slab = Slab.create ~k:kk nl in
      let t =
        time_per_run ~min_time (fun () ->
            Slab.reset slab;
            for _ = 1 to cycles do
              Slab.step slab
            done)
      in
      let lanes = Wide.lanes * kk in
      ignore
        (entry ~lanes
           (Printf.sprintf "wallace64 slab k=%d (%d lanes)" kk lanes)
           (per_lane_run *. float_of_int lanes /. t)
           wide_rate))
    [ 1; 4; 8; 16 ];
  (* gating worst case: every input word changes every cycle, so every
     rank stays dirty and the gated loops add one load + xor per word *)
  let k_g = 8 in
  let in_names = List.map fst nl.N.inputs in
  let rst = Random.State.make [| 0x24; k_g |] in
  let stim =
    Array.init cycles (fun _ ->
        List.map
          (fun name ->
            (name, Array.init k_g (fun _ -> Hydra_core.Packed.random_word rst)))
          in_names)
  in
  let drive slab () =
    Slab.reset slab;
    for c = 0 to cycles - 1 do
      List.iter
        (fun (name, ws) ->
          Array.iteri (fun w v -> Slab.set_input_word slab name w v) ws)
        stim.(c);
      Slab.step slab
    done
  in
  let slab_u = Slab.create ~k:k_g nl in
  let t_u = time_per_run ~min_time (drive slab_u) in
  let slab_g = Slab.create ~k:k_g ~gating:true nl in
  let t_g = time_per_run ~min_time (drive slab_g) in
  let lanes_g = Wide.lanes * k_g in
  let rate_u = per_lane_run *. float_of_int lanes_g /. t_u in
  let rate_g = per_lane_run *. float_of_int lanes_g /. t_g in
  ignore (entry ~lanes:lanes_g "wallace64 slab k=8 random stimulus" rate_u rate_u);
  ignore (entry ~lanes:lanes_g "wallace64 slab k=8 gated, random stimulus" rate_g rate_u);
  record ~section:"E24" ~lanes:lanes_g ~name:"wallace64 gating overhead"
    ~value:(t_g /. t_u) ~unit_:"x" ();
  row "  gating overhead on high-toggle wallace64: %.2fx time (floor: <= 1.10x)\n"
    (t_g /. t_u);
  (* gating win case: the CPU system holding its power-up state (start
     and dma never asserted) — nothing toggles, so a settled gated
     engine skips every rank *)
  let sys_nl = cpu_netlist () in
  let sys_st = N.stats sys_nl in
  let k_idle = 4 in
  let idle_cycles = 50 in
  let lanes_idle = Wide.lanes * k_idle in
  let per_idle_run =
    float_of_int sys_st.N.gates
    *. float_of_int idle_cycles
    *. float_of_int lanes_idle
  in
  row "  cpu idle: %d gates held quiescent for %d cycles per run\n"
    sys_st.N.gates idle_cycles;
  let idle_time gating =
    let slab = Slab.create ~k:k_idle ~gating sys_nl in
    (* settle into the quiescent fixed point before timing *)
    for _ = 1 to 4 do
      Slab.step slab
    done;
    time_per_run ~min_time (fun () ->
        for _ = 1 to idle_cycles do
          Slab.step slab
        done)
  in
  let t_idle_u = idle_time false in
  let t_idle_g = idle_time true in
  ignore
    (entry ~lanes:lanes_idle "cpu idle slab k=4" (per_idle_run /. t_idle_u)
       (per_idle_run /. t_idle_u));
  ignore
    (entry ~lanes:lanes_idle "cpu idle slab k=4 gated"
       (per_idle_run /. t_idle_g)
       (per_idle_run /. t_idle_u));
  record ~section:"E24" ~lanes:lanes_idle ~name:"cpu idle gating speedup"
    ~value:(t_idle_u /. t_idle_g) ~unit_:"x" ();
  row "  gating speedup on quiescent cpu: %.1fx (acceptance floor: 2x)\n"
    (t_idle_u /. t_idle_g)

(* E25 ------------------------------------------------------------------ *)

(* Rank-blocked kernels, cluster-granular gating and the C/simd backend.
   Four measurements:

   - wallace64 at k=16 (a slab too large for L2) swept over block sizes,
     against the unblocked one-block-per-rank baseline — the cache
     crossover the [Kernel.tuning] default sits on;
   - the cluster-gating overhead on high-toggle wallace64 at equal total
     lanes (acceptance: <= 1.05x time vs the ungated slab — block-scoped
     hot mode is cheaper than the old rank-scoped one);
   - the gating win on the quiescent CPU system, where a settled gated
     cycle reduces to two bitset scans (acceptance: > 4.5x over the
     ungated slab);
   - the simd backend vs the pure-OCaml kernels at the same geometry,
     stamped with the flavor this build probed (avx2/neon/scalar-c).

   [--tuning SPEC] adds a custom-geometry row to the sweep. *)
let cli_tuning : Hydra_engine.Kernel.tuning option ref = ref None

let e25 ?(min_time = 0.2) () =
  let module Slab = Hydra_engine.Slab in
  let module Kernel = Hydra_engine.Kernel in
  let module Simd = Hydra_engine.Simd in
  section "E25"
    "rank-blocked kernels: block-size sweep, cluster gating, simd backend";
  row "  simd backend this build: %s\n" (Simd.flavor ());
  record ~section:"E25" ~name:"simd backend (2=avx2, 1=neon, 0=scalar-c)"
    ~value:(float_of_int (match Simd.flavor () with
                          | "avx2" -> 2 | "neon" -> 1 | _ -> 0))
    ~unit_:"kind" ();
  let nl = wallace_netlist 64 in
  let st = N.stats nl in
  let gates = float_of_int st.N.gates in
  let cycles = 5 in
  let kk = 16 in
  let lanes = Wide.lanes * kk in
  row "  wallace64: %d gates at k=%d — %.1f MB of slab per settle\n"
    st.N.gates kk
    (float_of_int (N.size nl * kk * 8) /. 1e6);
  let sample ?tuning ?(simd = false) ?(k = kk) name =
    let slab = Slab.create ~k ?tuning ~simd nl in
    let t =
      time_per_run ~min_time (fun () ->
          Slab.reset slab;
          for _ = 1 to cycles do
            Slab.step slab
          done)
    in
    let lanes = Wide.lanes * k in
    let rate = gates *. float_of_int (cycles * lanes) /. t in
    record ~section:"E25" ~lanes ~name ~value:rate ~unit_:"gate-evals/s" ();
    (name, rate, t)
  in
  (* one block per rank = the pre-blocking layout *)
  let unblocked = { Kernel.default_tuning with Kernel.block_gates = max_int } in
  let _, base_rate, _ = sample ~tuning:unblocked "wallace64 k=16 unblocked" in
  row "  %-44s %12.3g gate-evals/s  (1.00x)\n" "unblocked (one block per rank)"
    base_rate;
  List.iter
    (fun bw ->
      let tuning = { Kernel.default_tuning with Kernel.block_words = bw } in
      let name = Printf.sprintf "wallace64 k=16 block-words=%d" bw in
      let _, rate, _ = sample ~tuning name in
      row "  %-44s %12.3g gate-evals/s  (%4.2fx)\n"
        (Printf.sprintf "block-words=%d (%d gates/block)" bw
           (Kernel.gates_per_block ~k:kk tuning))
        rate (rate /. base_rate))
    [ 768; 1536; 3072; 6144; 12288; 49152 ];
  (match !cli_tuning with
  | None -> ()
  | Some tuning ->
    let _, rate, _ =
      sample ~tuning
        (Printf.sprintf "wallace64 k=16 --tuning %s"
           (Kernel.tuning_to_spec tuning))
    in
    row "  %-44s %12.3g gate-evals/s  (%4.2fx)\n"
      ("--tuning " ^ Kernel.tuning_to_spec tuning)
      rate (rate /. base_rate));
  (* simd backend at the default geometry, k=16 and k=8 *)
  let _, ml16, _ = sample "wallace64 k=16 pure-OCaml" in
  let _, c16, _ = sample ~simd:true "wallace64 k=16 simd" in
  row "  %-44s %12.3g gate-evals/s  (%4.2fx vs OCaml)\n"
    (Printf.sprintf "simd k=16 (%s)" (Simd.flavor ())) c16 (c16 /. ml16);
  let _, ml8, _ = sample ~k:8 "wallace64 k=8 pure-OCaml" in
  let _, c8, _ = sample ~k:8 ~simd:true "wallace64 k=8 simd" in
  row "  %-44s %12.3g gate-evals/s  (%4.2fx vs OCaml)\n"
    (Printf.sprintf "simd k=8 (%s)" (Simd.flavor ())) c8 (c8 /. ml8);
  record ~section:"E25" ~lanes ~name:"simd speedup vs pure OCaml (k=16)"
    ~value:(c16 /. ml16) ~unit_:"x" ();
  (* cluster-gating overhead, high-toggle worst case at equal lanes *)
  let in_names = List.map fst nl.N.inputs in
  let rst = Random.State.make [| 0x25; kk |] in
  let stim =
    Array.init cycles (fun _ ->
        List.map
          (fun name ->
            (name, Array.init kk (fun _ -> Hydra_core.Packed.random_word rst)))
          in_names)
  in
  let drive slab () =
    Slab.reset slab;
    for c = 0 to cycles - 1 do
      List.iter
        (fun (name, ws) ->
          Array.iteri (fun w v -> Slab.set_input_word slab name w v) ws)
        stim.(c);
      Slab.step slab
    done
  in
  let t_u = time_per_run ~min_time (drive (Slab.create ~k:kk nl)) in
  let t_g =
    time_per_run ~min_time (drive (Slab.create ~k:kk ~gating:true nl))
  in
  record ~section:"E25" ~lanes ~name:"wallace64 cluster-gating overhead"
    ~value:(t_g /. t_u) ~unit_:"x" ();
  row "  cluster-gating overhead, high-toggle wallace64: %.3fx time \
       (acceptance: <= 1.05x)\n"
    (t_g /. t_u);
  (* idle win: the CPU system held quiescent — a settled gated cycle is
     two bitset scans *)
  let sys_nl = cpu_netlist () in
  let sys_st = N.stats sys_nl in
  let k_idle = 4 in
  let idle_cycles = 50 in
  let lanes_idle = Wide.lanes * k_idle in
  row "  cpu idle: %d gates held quiescent for %d cycles per run\n"
    sys_st.N.gates idle_cycles;
  let idle_time gating =
    let slab = Slab.create ~k:k_idle ~gating sys_nl in
    for _ = 1 to 4 do
      Slab.step slab
    done;
    time_per_run ~min_time (fun () ->
        for _ = 1 to idle_cycles do
          Slab.step slab
        done)
  in
  let t_idle_u = idle_time false in
  let t_idle_g = idle_time true in
  record ~section:"E25" ~lanes:lanes_idle
    ~name:"cpu idle cluster-gating speedup" ~value:(t_idle_u /. t_idle_g)
    ~unit_:"x" ();
  row "  cluster-gating speedup on quiescent cpu: %.1fx (acceptance: > 4.5x)\n"
    (t_idle_u /. t_idle_g)

(* E26: fixpoint dataflow analyses and the certified sweep they license.
   Two costs matter: the analysis itself (three worklist fixpoints plus
   partition refinement) must stay interactive on the big netlists, and
   the sweep must buy a real component reduction once translation
   validation is included in the bill. *)

let e26 () =
  let module Dataflow = Hydra_analyze.Dataflow in
  let module Sweep = Hydra_analyze.Sweep in
  let module Certify = Hydra_analyze.Certify in
  section "E26" "fixpoint dataflow analyses + certified sweep";
  List.iter
    (fun (name, nl) ->
      let n = N.size nl in
      let t0 = Unix.gettimeofday () in
      let df = Dataflow.create nl in
      let stats = Dataflow.stats df in
      let classes = Dataflow.classes df in
      let t_analyze = Unix.gettimeofday () -. t0 in
      let visits =
        List.fold_left (fun a (_, s) -> a + s.Dataflow.visits) 0 stats
      in
      row
        "  %-10s %6d comps: 3 fixpoints + classes in %.3f s (%d worklist \
         visits)\n"
        name n t_analyze visits;
      row "    stuck registers=%d  constants=%d  masked=%d  classes=%d\n"
        (List.length (Dataflow.stuck_registers df))
        (List.length (Dataflow.constant_components df))
        (List.length (Dataflow.masked df))
        (List.length classes);
      record ~section:"E26" ~name:(name ^ " analysis time") ~value:t_analyze
        ~unit_:"s" ();
      let t0 = Unix.gettimeofday () in
      let post, report, oc = Certify.sweep nl in
      let t_sweep = Unix.gettimeofday () -. t0 in
      if not (Certify.certified oc) then
        failwith ("E26: sweep refuted on " ^ name ^ ": " ^ Certify.describe oc);
      row "    certified sweep: %s in %.3f s (%.1f%% smaller)\n"
        (Sweep.describe report) t_sweep
        (100.
        *. float_of_int (report.Sweep.before - report.Sweep.after)
        /. float_of_int report.Sweep.before);
      record ~section:"E26" ~name:(name ^ " sweep+certify time")
        ~value:t_sweep ~unit_:"s" ();
      record ~section:"E26" ~name:(name ^ " sweep component reduction")
        ~value:(float_of_int (report.Sweep.before - report.Sweep.after))
        ~unit_:"components" ();
      ignore post)
    [ ("wallace64", wallace_netlist 64); ("cpu", cpu_netlist ()) ]

(* E27: the unified scheduler, the compiled-circuit cache and
   incremental recompilation.  Three measurements:

   - a catalogue re-run (14 circuits x 3 engine flavors) cold vs warm —
     a warm {!Cache} hit must skip compilation entirely (acceptance:
     >= 10x end-to-end);
   - patch-vs-full recompile on a single-gate edit of wallace64, with
     the recompiled-component fraction (acceptance: < 10%);
   - a mixed fault-campaign + equivalence workload on one shared
     scheduler team + cache vs each tool owning its engines, asserting
     bit-identical results.

   Every row here is stamped with [wall_s] and [warmup] (the bench
   hygiene convention for new rows). *)
let e27 ?(min_time = 0.2) () =
  let module Cache = Hydra_engine.Cache in
  let module Scheduler = Hydra_engine.Scheduler in
  let module Kernel = Hydra_engine.Kernel in
  section "E27"
    "unified scheduler + compiled-circuit cache + incremental recompilation";
  (* catalogue: 14 circuits x 3 flavors (program, wide replica, slab k=4) *)
  let catalogue =
    [
      ("ripple8", ripple_netlist 8);
      ("ripple32", ripple_netlist 32);
      ("ripple64", ripple_netlist 64);
      ("cla16 sklansky", cla_netlist ~network:P.Sklansky 16);
      ("cla32 brent-kung", cla_netlist ~network:P.Brent_kung 32);
      ("cla32 kogge-stone", cla_netlist ~network:P.Kogge_stone 32);
      ("cla64 kogge-stone", cla_netlist ~network:P.Kogge_stone 64);
      ("wallace8", wallace_netlist 8);
      ("wallace16", wallace_netlist 16);
      ("wallace24", wallace_netlist 24);
      ("wallace32", wallace_netlist 32);
      ("wide-adder 8x16", wide_adder_netlist ~copies:8 ~width:16);
      ("wide-adder 16x8", wide_adder_netlist ~copies:16 ~width:8);
      ("cpu", cpu_netlist ());
    ]
  in
  row "  catalogue: %d circuits x 3 engine flavors\n" (List.length catalogue);
  let cache = Cache.create () in
  let touch () =
    List.iter
      (fun (_, nl) ->
        ignore (Cache.compile cache nl);
        ignore (Cache.slab cache ~k:1 nl);
        ignore (Cache.slab cache ~k:4 nl))
      catalogue
  in
  let t0 = Unix.gettimeofday () in
  touch ();
  let t_cold = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  touch ();
  let t_warm = Unix.gettimeofday () -. t0 in
  let cst = Cache.stats cache in
  row "  cold catalogue: %.3f s   warm re-run: %.4f s   speedup %.0fx \
       (acceptance floor: 10x)\n"
    t_cold t_warm (t_cold /. t_warm);
  row "  cache counters: %d hits, %d misses, %d evictions, %d entries\n"
    cst.Cache.hits cst.Cache.misses cst.Cache.evictions cst.Cache.entries;
  record ~section:"E27" ~name:"catalogue cold compile" ~value:t_cold
    ~unit_:"s" ~wall_s:t_cold ~warmup:0 ();
  record ~section:"E27" ~name:"catalogue warm re-run" ~value:t_warm ~unit_:"s"
    ~wall_s:t_warm ~warmup:1 ();
  record ~section:"E27" ~name:"catalogue warm-cache speedup"
    ~value:(t_cold /. t_warm) ~unit_:"x" ~wall_s:(t_cold +. t_warm) ~warmup:1
    ();
  if t_cold < 10.0 *. t_warm then
    row "  WARNING: warm-cache speedup is below the 10x acceptance floor\n";
  (* patch vs full recompile on a single-gate edit of wallace64; the
     edit is expressed in the program's own (post-relayout) index space,
     so the full-recompile comparison also skips relayout *)
  let nl64 = wallace_netlist 64 in
  let prog = Kernel.compile nl64 in
  let pnl = prog.Kernel.netlist in
  let ands = ref [] in
  Array.iteri
    (fun i c -> if c = N.And2c then ands := i :: !ands)
    pnl.N.components;
  let ands = Array.of_list (List.rev !ands) in
  let site = ands.(Array.length ands / 2) in
  let components = Array.copy pnl.N.components in
  components.(site) <- N.Or2c;
  let nl' = { pnl with N.components } in
  let t0 = Unix.gettimeofday () in
  let t_full =
    time_per_run ~min_time (fun () ->
        ignore (Kernel.compile ~relayout:false nl'))
  in
  let t_patch =
    time_per_run ~min_time (fun () ->
        ignore (Kernel.patch prog nl' ~edited:[ site ]))
  in
  let wall_patch = Unix.gettimeofday () -. t0 in
  let _, pst = Kernel.patch prog nl' ~edited:[ site ] in
  let frac =
    float_of_int pst.Kernel.p_comps_recompiled
    /. float_of_int pst.Kernel.p_comps_total
  in
  row "  wallace64 single-gate edit: full recompile %.4f s, patch %.5f s \
       (%.0fx)\n"
    t_full t_patch (t_full /. t_patch);
  row "  patch recompiled %d of %d components (%.1f%%; acceptance: < 10%%), \
       %d of %d ranks\n"
    pst.Kernel.p_comps_recompiled pst.Kernel.p_comps_total (100. *. frac)
    pst.Kernel.p_ranks_rebuilt pst.Kernel.p_ranks_total;
  record ~section:"E27" ~name:"wallace64 full recompile" ~value:t_full
    ~unit_:"s" ~wall_s:wall_patch ~warmup:1 ();
  record ~section:"E27" ~name:"wallace64 single-gate patch" ~value:t_patch
    ~unit_:"s" ~wall_s:wall_patch ~warmup:1 ();
  record ~section:"E27" ~name:"wallace64 patch speedup vs full"
    ~value:(t_full /. t_patch) ~unit_:"x" ~wall_s:wall_patch ~warmup:1 ();
  record ~section:"E27" ~name:"wallace64 patch recompiled fraction"
    ~value:frac ~unit_:"fraction" ~wall_s:wall_patch ~warmup:1 ();
  (* mixed fault + equivalence workload: each tool owning its engines vs
     both draining one scheduler team through one cache *)
  let module C = Hydra_verify.Campaign in
  let nl16 = wallace_netlist 16 in
  let faults = C.all_stuck_at nl16 in
  let stimulus = C.random_stimulus ~seed:9 ~cycles:4 nl16 in
  let opt16 = Hydra_netlist.Optimize.optimize nl16 in
  let t0 = Unix.gettimeofday () in
  let rep_seq = C.run nl16 ~faults ~stimulus ~cycles:4 in
  let eq_seq = Equiv.wide_random_netlists ~passes:4 ~cycles:8 nl16 opt16 in
  let t_seq = Unix.gettimeofday () -. t0 in
  let sch = Scheduler.create ~domains:2 () in
  let t0 = Unix.gettimeofday () in
  let rep_sch =
    C.run ~scheduler:sch ~cache nl16 ~faults ~stimulus ~cycles:4
  in
  let eq_sch =
    Equiv.wide_random_netlists ~scheduler:sch ~cache ~passes:4 ~cycles:8 nl16
      opt16
  in
  let t_sch = Unix.gettimeofday () -. t0 in
  Scheduler.shutdown sch;
  if rep_seq <> rep_sch then failwith "E27: campaign diverges under scheduler";
  if eq_seq <> eq_sch then failwith "E27: equiv diverges under scheduler";
  let nwork = float_of_int (List.length faults + 4) in
  row "  mixed fault+equiv (%d faults + 4 equiv passes), bit-identical: \
       dedicated %.3f s vs one shared team %.3f s\n"
    (List.length faults) t_seq t_sch;
  record ~section:"E27" ~name:"mixed fault+equiv dedicated engines"
    ~value:(nwork /. t_seq) ~unit_:"jobs/s" ~wall_s:t_seq ~warmup:0 ();
  record ~section:"E27" ~domains:2 ~lanes:Wide.lanes
    ~name:"mixed fault+equiv one shared team" ~value:(nwork /. t_sch)
    ~unit_:"jobs/s" ~wall_s:t_sch ~warmup:0 ()

(* E28: resilience — throughput under chaos storms.  The acceptance
   experiment for the resilience layer: a wallace64 all-stuck-at slab
   campaign on a shared scheduler team, fault-free vs under a seeded
   chaos storm (~10% of chunk executions stall, 5% raise transient
   exceptions), with a retry policy recovering, an admission controller
   degrading the slab request, and a hard deadline at 2x the fault-free
   wall time.  Acceptance: the stormy campaign completes inside the
   deadline by shedding/degrading — with bit-identical verdicts.  The
   gate is real: a deadline expiry or verdict divergence fails the
   bench run, and the faults/s rows are pinned by [--baseline]. *)
let e28 () =
  let module C = Hydra_verify.Campaign in
  let module Chaos = Hydra_verify.Chaos in
  let module R = Hydra_engine.Resilience in
  let module Scheduler = Hydra_engine.Scheduler in
  section "E28" "resilience: campaign throughput under chaos storms";
  let nl = wallace_netlist 64 in
  let faults = C.all_stuck_at nl in
  let nf = List.length faults in
  let cycles = 6 in
  let stimulus = C.random_stimulus ~seed:11 ~cycles nl in
  let k = 4 in
  let chunks = Scheduler.chunking ~reserved:1 ~lanes:(62 * k) nf in
  row "  wallace64: %d stuck-at faults, slab k=%d, %d chunks, 2 domains\n" nf
    k chunks.Scheduler.count;
  let sch = Scheduler.create ~domains:2 () in
  (* fault-free reference on the same team *)
  let t0 = Unix.gettimeofday () in
  let clean =
    C.run ~scheduler:sch ~engine:(`Slab k) nl ~faults ~stimulus ~cycles
  in
  let t_clean = Unix.gettimeofday () -. t0 in
  let clean_rate = float_of_int nf /. t_clean in
  row "  %-40s %8.3f s  %10.1f faults/s\n" "fault-free" t_clean clean_rate;
  record ~section:"E28" ~domains:2 ~lanes:(62 * k)
    ~name:"wallace64 slab campaign fault-free" ~value:clean_rate
    ~unit_:"faults/s" ~wall_s:t_clean ~warmup:0 ();
  (* the storm: each chunk execution stalls with p=0.10 (up to roughly
     one chunk's worth of work) or raises with p=0.05; retries recover
     the raises, the admission budget degrades the slab request to
     k=2, and the whole campaign must still land inside 2x fault-free *)
  let stall = t_clean /. float_of_int (max 1 chunks.Scheduler.count) in
  let plan =
    Chaos.plan ~seed:0xe28 ~delay_rate:0.10 ~exn_rate:0.05 ~max_delay:stall ()
  in
  let retry = R.retry ~max_attempts:6 ~base_delay:0.001 ~max_delay:0.01 () in
  let admission = R.admission ~max_lanes:(62 * k / 2) () in
  let deadline = 2.0 *. t_clean in
  let t0 = Unix.gettimeofday () in
  let stormy =
    match
      C.run ~scheduler:sch ~engine:(`Slab k) ~deadline ~retry ~admission
        ~chaos:plan nl ~faults ~stimulus ~cycles
    with
    | r -> r
    | exception R.Deadline_exceeded { elapsed; _ } ->
      failwith
        (Printf.sprintf
           "E28: stormy campaign blew the 2x deadline (%.3f s vs %.3f s \
            fault-free)"
           elapsed t_clean)
  in
  let t_storm = Unix.gettimeofday () -. t0 in
  Scheduler.shutdown sch;
  if clean.C.verdicts <> stormy.C.verdicts then
    failwith "E28: verdicts diverged under the chaos storm";
  let c = Chaos.injected plan in
  let storm_rate = float_of_int nf /. t_storm in
  let ratio = t_storm /. t_clean in
  row "  %-40s %8.3f s  %10.1f faults/s\n"
    (Printf.sprintf "chaos storm (%d stalls, %d raises)" c.Chaos.delays
       c.Chaos.exns)
    t_storm storm_rate;
  let ast = R.admission_stats admission in
  row "  verdicts bit-identical; slab degraded %d time(s); wall ratio \
       %.2fx (acceptance: <= 2x, enforced by the deadline)\n"
    ast.R.degraded ratio;
  record ~section:"E28" ~domains:2 ~lanes:(62 * k / 2)
    ~name:"wallace64 slab campaign under chaos" ~value:storm_rate
    ~unit_:"faults/s" ~wall_s:t_storm ~warmup:0 ();
  record ~section:"E28" ~name:"chaos wall ratio vs fault-free" ~value:ratio
    ~unit_:"x" ~wall_s:(t_clean +. t_storm) ~warmup:0 ();
  record ~section:"E28"
    ~name:"chaos injections survived"
    ~value:(float_of_int (c.Chaos.delays + c.Chaos.exns))
    ~unit_:"injections" ~wall_s:t_storm ~warmup:0 ()

(* Smoke mode ----------------------------------------------------------- *)

(* A ~2 s subset run from `dune runtest` (alias bench-smoke): asserts the
   wide engine agrees with the scalar one on a real circuit, then takes a
   single quick throughput sample so gross engine regressions surface in
   tier-1. *)
let smoke () =
  print_endline "bench smoke: wide-engine agreement + quick throughput";
  let nl = wallace_netlist 16 in
  (* correctness: 62 random multiplications per pass, wide vs scalar *)
  (match Equiv.wide_random_netlists ~passes:2 ~cycles:4 nl nl with
  | Equiv.Seq_equivalent -> ()
  | Equiv.Seq_mismatch _ -> failwith "smoke: self-equivalence failed");
  (match Equiv.wide_random_netlists ~passes:2 ~cycles:4 nl
           (Hydra_netlist.Optimize.optimize nl)
   with
  | Equiv.Seq_equivalent -> print_endline "  optimize-equivalence: ok"
  | Equiv.Seq_mismatch { output; cycle; _ } ->
    failwith
      (Printf.sprintf "smoke: optimized netlist diverges at %s, cycle %d"
         output cycle));
  let scalar = Compiled.create nl and wide = Wide.create nl in
  let st = Random.State.make [| 0xbeef |] in
  let input_names = List.map fst nl.N.inputs in
  for _cycle = 1 to 16 do
    let packed_inputs =
      List.map (fun name -> (name, Hydra_core.Packed.random_word st)) input_names
    in
    List.iter (fun (n, w) -> Wide.set_input wide n w) packed_inputs;
    (* lane 7 of the wide run vs a scalar run *)
    List.iter
      (fun (n, w) -> Compiled.set_input scalar n (Hydra_core.Packed.lane w 7))
      packed_inputs;
    Wide.settle wide;
    Compiled.settle scalar;
    List.iter
      (fun (name, _) ->
        if Hydra_engine.Slab.output_lane wide name 7 <> Compiled.output scalar name then
          failwith ("smoke: lane mismatch on " ^ name))
      nl.N.outputs;
    Wide.tick wide;
    Compiled.tick scalar
  done;
  print_endline "  scalar/wide lane agreement: ok";
  (* sharded engine: batches over 2 domains must equal sequential
     run_packed of the same batches on one wide engine *)
  let module Sharded = Hydra_engine.Sharded in
  let batch k =
    let st = Random.State.make [| 0xca5e; k |] in
    List.map
      (fun name ->
        (name, List.init 4 (fun _ -> Hydra_core.Packed.random_word st)))
      input_names
  in
  let batches = Array.init 5 batch in
  let sh = Sharded.create ~domains:2 nl in
  let got = Sharded.run_batches sh ~batches ~cycles:4 in
  Sharded.shutdown sh;
  let reference = Wide.create nl in
  Array.iteri
    (fun b inputs ->
      if got.(b) <> Hydra_engine.Slab.run_packed reference ~inputs ~cycles:4 then
        failwith (Printf.sprintf "smoke: sharded batch %d diverges" b))
    batches;
  print_endline "  sharded/wide batch agreement: ok";
  (* slab engine: every k=4 flavor — plain, cluster-gated, simd, tiny
     rank blocks — must match the wide engine on every word of every
     output *)
  let module Slab = Hydra_engine.Slab in
  let module Kernel = Hydra_engine.Kernel in
  let tiny = { Kernel.default_tuning with Kernel.block_gates = 4 } in
  List.iter
    (fun (label, gating, simd, tuning) ->
      match Equiv.slab_vs_wide ~passes:1 ~cycles:4 ~k:4 ~gating ~simd ?tuning nl with
      | Equiv.Seq_equivalent -> ()
      | Equiv.Seq_mismatch { output; cycle; _ } ->
        failwith
          (Printf.sprintf "smoke: slab (%s) diverges from wide at %s, cycle %d"
             label output cycle))
    [
      ("plain", false, false, None);
      ("gated", true, false, None);
      ("simd", false, true, None);
      ("gated simd tiny-blocks", true, true, Some tiny);
    ];
  Printf.printf
    "  slab/wide agreement (k=4: plain, gated, simd [%s], tiny blocks): ok\n"
    (Hydra_engine.Simd.flavor ());
  record ~section:"smoke" ~name:"simd backend (2=avx2, 1=neon, 0=scalar-c)"
    ~value:
      (float_of_int
         (match Hydra_engine.Simd.flavor () with
         | "avx2" -> 2
         | "neon" -> 1
         | _ -> 0))
    ~unit_:"kind" ();
  let cycles = 5 in
  let t_scalar =
    time_per_run ~min_time:0.05 (fun () ->
        Compiled.reset scalar;
        for _ = 1 to cycles do
          Compiled.step scalar
        done)
  in
  let t_wide =
    time_per_run ~min_time:0.05 (fun () ->
        Wide.reset wide;
        for _ = 1 to cycles do
          Wide.step wide
        done)
  in
  Printf.printf "  throughput sample: wide/scalar = %.1fx per gate-eval\n"
    (t_scalar /. t_wide *. float_of_int Wide.lanes);
  record ~section:"smoke" ~name:"wide/scalar speedup per gate-eval"
    ~value:(t_scalar /. t_wide *. float_of_int Wide.lanes)
    ~unit_:"x" ~lanes:Wide.lanes ();
  let slab = Slab.create ~k:4 nl in
  let t_slab =
    time_per_run ~min_time:0.05 (fun () ->
        Slab.reset slab;
        for _ = 1 to cycles do
          Slab.step slab
        done)
  in
  Printf.printf "  throughput sample: slab k=4 / wide = %.2fx per gate-eval\n"
    (t_wide /. t_slab *. 4.0);
  record ~section:"smoke" ~name:"slab/wide speedup per gate-eval (k=4)"
    ~value:(t_wide /. t_slab *. 4.0)
    ~unit_:"x" ~lanes:(4 * Wide.lanes) ();
  (* fault campaign sanity: a whole stuck-at campaign on an 8-bit wallace
     multiplier must classify every fault and detect most of them *)
  let module C = Hydra_verify.Campaign in
  let nl8 = wallace_netlist 8 in
  let faults = C.all_stuck_at nl8 in
  let stimulus = C.random_stimulus ~seed:3 ~cycles:6 nl8 in
  let t0 = Unix.gettimeofday () in
  let rep = C.run nl8 ~faults ~stimulus ~cycles:6 in
  let t_camp = Unix.gettimeofday () -. t0 in
  if rep.C.total <> rep.C.detected + rep.C.latent + rep.C.masked then
    failwith "smoke: campaign verdicts do not partition the fault list";
  if rep.C.detected = 0 then
    failwith "smoke: campaign detected no stuck-at faults";
  Printf.printf "  fault campaign: %d/%d stuck-at faults detected: ok\n"
    rep.C.detected rep.C.total;
  record ~section:"smoke" ~name:"campaign stuck-at faults/s (wallace8)"
    ~value:(float_of_int rep.C.total /. t_camp)
    ~unit_:"faults/s" ~lanes:Wide.lanes ();
  record ~section:"smoke" ~name:"host recommended domains"
    ~value:(float_of_int (Domain.recommended_domain_count ()))
    ~unit_:"domains" ();
  print_endline "bench smoke: PASS"

(* Driver --------------------------------------------------------------- *)

let sections : (string * (unit -> unit)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19); ("E20", (fun () -> e20 ()));
    ("E21", (fun () -> e21 ())); ("E23", (fun () -> e23 ()));
    ("E24", (fun () -> e24 ()));
    ("E25", (fun () -> e25 ()));
    ("E26", e26);
    ("E27", (fun () -> e27 ()));
    ("E28", e28);
  ]

(* Baseline comparison: re-read a previous [--json] file (our own
   format, one row per line) and fail on a >10% regression of any
   pinned throughput row — sections E20/E24/E28, unit ending in "/s" —
   that this run also produced with the same domain count. *)
let scan_baseline path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "error: cannot read baseline %s (%s)\n" path msg;
      exit 2
  in
  let field line key =
    (* values we wrote: "key": "string" or "key": number *)
    let pat = Printf.sprintf "\"%s\": " key in
    let plen = String.length pat in
    let rec find i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let stop = ref start in
      let quoted = line.[start] = '"' in
      let start = if quoted then start + 1 else start in
      stop := start;
      while
        !stop < String.length line
        &&
        if quoted then line.[!stop] <> '"'
        else not (List.mem line.[!stop] [ ','; '}'; ' ' ])
      do
        incr stop
      done;
      Some (String.sub line start (!stop - start))
  in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         (field line "section", field line "name", field line "value",
          field line "unit")
       with
       | Some sec, Some name, Some v, Some unit_ ->
         rows :=
           (sec, name, unit_, float_of_string v,
            Option.map int_of_string (field line "domains"))
           :: !rows
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  !rows

let pinned_row (sec, _, _, unit_, _, _, _, _, _, _) =
  (sec = "E20" || sec = "E24" || sec = "E28")
  && String.length unit_ >= 2
  && String.sub unit_ (String.length unit_ - 2) 2 = "/s"

let compare_baseline path =
  let base = scan_baseline path in
  let compared = ref 0 and regressions = ref [] in
  List.iter
    (fun ((sec, name, value, _, domains, _, _, _, _, _) as r) ->
      if pinned_row r then
        match
          List.find_opt
            (fun (bsec, bname, _, _, bdomains) ->
              bsec = sec && bname = name && bdomains = domains)
            base
        with
        | None -> ()
        | Some (_, _, _, bvalue, _) ->
          incr compared;
          if value < 0.9 *. bvalue then
            regressions :=
              Printf.sprintf "  %s: %-40s %.3g -> %.3g (%.1f%% down)" sec
                name bvalue value
                (100. *. (1. -. (value /. bvalue)))
              :: !regressions)
    (List.rev !results);
  Printf.printf "\nbaseline %s: %d pinned E20/E24/E28 row(s) compared\n" path
    !compared;
  if !compared = 0 then
    print_endline
      "  warning: no comparable rows (run E20/E24/E28 in both runs on the \
       same host)";
  match !regressions with
  | [] -> print_endline "  no >10% regression"
  | rs ->
    print_endline "  REGRESSION (>10% below baseline):";
    List.iter print_endline (List.rev rs);
    exit 1

let usage () =
  print_endline
    "usage: main.exe [--smoke] [--json PATH] [--baseline PATH] \
     [--only E12,E20] [--list] [--tuning SPEC]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = ref None and only = ref None and smoke_mode = ref false in
  let baseline = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline := Some path;
      parse rest
    | "--only" :: names :: rest ->
      only := Some (String.split_on_char ',' names);
      parse rest
    | "--tuning" :: spec :: rest ->
      (try cli_tuning := Some (Hydra_engine.Kernel.tuning_of_spec spec)
       with Invalid_argument msg ->
         prerr_endline msg;
         usage ());
      parse rest
    | "--list" :: _ ->
      List.iter (fun (id, _) -> print_endline id) sections;
      exit 0
    | _ -> usage ()
  in
  parse args;
  if !smoke_mode then smoke ()
  else begin
    let chosen =
      match !only with
      | None -> sections
      | Some ids ->
        List.iter
          (fun id ->
            if not (List.mem_assoc id sections) then begin
              Printf.eprintf "unknown section %s\n" id;
              usage ()
            end)
          ids;
        List.filter (fun (id, _) -> List.mem id ids) sections
    in
    let t0 = Unix.gettimeofday () in
    print_endline
      "Hydra reproduction benchmarks (see DESIGN.md experiment index)";
    List.iter (fun (_, f) -> f ()) chosen;
    Printf.printf "\nAll sections completed in %.1f s\n"
      (Unix.gettimeofday () -. t0)
  end;
  (match !json with None -> () | Some path -> write_json path);
  match !baseline with None -> () | Some path -> compare_baseline path
