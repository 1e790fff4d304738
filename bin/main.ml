(* hydra: command-line front end.

   Subcommands:
     asm      assemble a source file to hex words
     dis      disassemble hex words
     run      assemble and execute a program on the gate-level processor
     netlist  emit a named circuit's netlist (paper tuple, dot, verilog)
     lint     static lint rules over named circuits or saved netlists
     analyze  fixpoint dataflow analyses and the certified sweep
     timing   static timing/size report for a named circuit
     faults   fault-injection campaigns (stuck-at, SEU, intermittent)
     equiv    slab-vs-wide engine equivalence sweep over named circuits
     algo     print the processor's control algorithm (paper section 6.2)

   Named circuits for netlist/lint/analyze/timing/faults: fig1, mux1,
   regfile1:<k>, ripple:<n>, cla-sklansky:<n>, cla-brent-kung:<n>,
   cla-kogge-stone:<n>, alu:<n>, sorter:<n>x<w>, secded, wallace:<n>,
   cpu:<mem_bits>. *)

open Cmdliner

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module L = Hydra_netlist.Levelize
module F = Hydra_netlist.Formats
module P = Hydra_core.Patterns

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- circuit catalogue ---- *)

let inputs prefix n = List.init n (fun i -> G.input (Printf.sprintf "%s%d" prefix i))

let adder_outputs (cout, sums) =
  ("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums

(* A malformed circuit spec (unknown name, non-numeric or non-positive
   size, a size the generator rejects) is a usage error: a message and
   exit 2, from every subcommand that takes one. *)
let bad_circuit name fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "hydra: circuit %S: %s\n" name m;
      exit 2)
    fmt

let build_circuit name =
  let module A = Hydra_circuits.Arith.Make (G) in
  let module M = Hydra_circuits.Mux.Make (G) in
  let module R = Hydra_circuits.Regs.Make (G) in
  let module Alu = Hydra_circuits.Alu.Make (G) in
  let module Sorter = Hydra_circuits.Sorter.Make (G) in
  let int_param s =
    match String.index_opt s ':' with
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, None)
  in
  let base, param = int_param name in
  let size s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> bad_circuit name "size %S is not a positive integer" s
  in
  let p default = match param with Some s -> size s | None -> default in
  match base with
  | "fig1" ->
    let a = G.input "a" and b = G.input "b" in
    N.of_graph ~outputs:[ ("x", G.and2 (G.inv a) b) ]
  | "mux1" ->
    let c = G.input "c" and x = G.input "x" and y = G.input "y" in
    N.of_graph ~outputs:[ ("out", M.mux1 c x y) ]
  | "ripple" ->
    let n = p 8 in
    N.of_graph
      ~outputs:
        (adder_outputs (A.ripple_add G.zero (List.combine (inputs "x" n) (inputs "y" n))))
  | "cla-sklansky" | "cla-brent-kung" | "cla-kogge-stone" ->
    let n = p 8 in
    let network =
      match base with
      | "cla-sklansky" -> P.Sklansky
      | "cla-brent-kung" -> P.Brent_kung
      | _ -> P.Kogge_stone
    in
    N.of_graph
      ~outputs:
        (adder_outputs
           (A.cla_add ~network G.zero (List.combine (inputs "x" n) (inputs "y" n))))
  | "alu" ->
    let n = p 16 in
    let op = inputs "op" 4 in
    let ovfl, r = Alu.alu op (inputs "x" n) (inputs "y" n) in
    N.of_graph
      ~outputs:
        (("ovfl", ovfl) :: List.mapi (fun i s -> (Printf.sprintf "r%d" i, s)) r)
  | "regfile1" ->
    let k = p 4 in
    let a, b =
      R.regfile1 k (G.input "ld") (inputs "d" k) (inputs "sa" k) (inputs "sb" k)
        (G.input "x")
    in
    N.of_graph ~outputs:[ ("a", a); ("b", b) ]
  | "sorter" ->
    let n, w =
      match param with
      | Some s -> (
          match String.split_on_char 'x' s with
          | [ a; b ] -> (size a, size b)
          | _ -> bad_circuit name "expected sorter:<n>x<w>")
      | None -> (4, 4)
    in
    let words = List.init n (fun i -> inputs (Printf.sprintf "w%d_" i) w) in
    let sorted = Sorter.sort words in
    N.of_graph
      ~outputs:
        (List.concat
           (List.mapi
              (fun i word ->
                List.mapi
                  (fun j b -> (Printf.sprintf "o%d_%d" i j, b))
                  word)
              sorted))
  | "secded" ->
    (* SECDED-protected 4-bit register next to an unprotected copy: the
       fault-campaign graceful-degradation demo *)
    let module E = Hydra_circuits.Ecc.Protected (G) in
    let data = inputs "d" 4 in
    let dec, single, double = E.secded_reg data in
    let plain = E.plain_pipeline data in
    N.of_graph
      ~outputs:
        (List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) dec
        @ [ ("single", single); ("double", double) ]
        @ List.mapi (fun i s -> (Printf.sprintf "u%d" i, s)) plain)
  | "wallace" ->
    (* registered Wallace-tree multiplier: the deep-cone benchmark
       circuit, here for `analyze --sweep` and timing runs *)
    let n = p 16 in
    let module W = Hydra_circuits.Wallace.Make (G) in
    let prod = W.multw (inputs "x" n) (inputs "y" n) in
    let regd = List.map G.dff prod in
    N.of_graph
      ~outputs:(List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) regd)
  | "cpu" ->
    let mem_bits = p 6 in
    let module Sys_g = Hydra_cpu.System.Make (G) in
    let word n = inputs n 16 in
    let outs =
      Sys_g.system ~mem_bits
        {
          Sys_g.start = G.input "start";
          dma = G.input "dma";
          dma_a = word "da";
          dma_d = word "dd";
        }
    in
    N.of_graph
      ~outputs:
        (("halted", outs.Sys_g.halted)
        :: List.mapi
             (fun i s -> (Printf.sprintf "pc%d" i, s))
             outs.Sys_g.dp.Sys_g.D.pc
        @ List.mapi
            (fun i s -> (Printf.sprintf "r%d" i, s))
            outs.Sys_g.dp.Sys_g.D.r)
  | _ ->
    bad_circuit name
      "unknown circuit (try fig1, mux1, ripple:8, cla-sklansky:16, alu:16, \
       regfile1:4, sorter:4x4, secded, wallace:16, cpu:6)"

let circuit_of_name name =
  try build_circuit name with Invalid_argument m -> bad_circuit name "%s" m

(* ---- asm ---- *)

(* Assemble a source file; a source error is reported as FILE:LINE and
   exits 2. *)
let assemble_file file =
  try Hydra_cpu.Asm.assemble (read_file file)
  with Hydra_cpu.Asm.Error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" file line message;
    exit 2

let asm_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let words = assemble_file file in
    List.iter (fun w -> Printf.printf "%04x\n" w) words
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble a source file to hex words")
    Term.(const run $ file)

(* ---- dis ---- *)

let dis_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let words =
      read_file file |> String.split_on_char '\n'
      |> List.mapi (fun i l -> (i + 1, String.trim l))
      |> List.filter_map (fun (line, l) ->
             if l = "" then None
             else
               match int_of_string_opt ("0x" ^ l) with
               | Some w -> Some w
               | None ->
                 Printf.eprintf "%s:%d: not a hex word: %S\n" file line l;
                 exit 2)
    in
    print_string (Hydra_cpu.Asm.disassemble words)
  in
  Cmd.v (Cmd.info "dis" ~doc:"Disassemble hex words (one per line)")
    Term.(const run $ file)

(* ---- run ---- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"print the per-cycle trace")
  in
  let behavioural =
    Arg.(
      value & flag
      & info [ "behavioural" ]
          ~doc:"use the behavioural-memory driver (fast, 64K words)")
  in
  let mem_bits =
    Arg.(
      value & opt int 6
      & info [ "mem-bits" ] ~doc:"structural memory address bits")
  in
  let max_cycles =
    Arg.(value & opt int 20000 & info [ "max-cycles" ] ~doc:"cycle budget")
  in
  let run file trace behavioural mem_bits max_cycles =
    let program = assemble_file file in
    let res =
      if behavioural then
        Hydra_cpu.Driver.run_behavioural ~max_cycles ~collect_trace:trace
          program
      else
        Hydra_cpu.Driver.run_structural ~mem_bits ~max_cycles
          ~collect_trace:trace program
    in
    if trace then
      List.iter
        (fun e -> print_endline (Hydra_cpu.Driver.trace_fmt e))
        res.Hydra_cpu.Driver.trace;
    Printf.printf "halted=%b cycles=%d\n" res.Hydra_cpu.Driver.halted
      res.Hydra_cpu.Driver.cycles;
    let regs = Hydra_cpu.Driver.final_registers res in
    Array.iteri
      (fun i v -> if v <> 0 then Printf.printf "R%-2d = %5d (0x%04x)\n" i v v)
      regs;
    List.iter
      (function
        | Hydra_cpu.Golden.Mem_write { addr; value } ->
          Printf.printf "mem[%04x] := %d\n" addr value
        | _ -> ())
      res.Hydra_cpu.Driver.events
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble and run a program on the gate-level CPU")
    Term.(const run $ file $ trace $ behavioural $ mem_bits $ max_cycles)

(* ---- netlist ---- *)

let netlist_cmd =
  let circuit_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT") in
  let format =
    Arg.(
      value
      & opt (enum [ ("paper", `Paper); ("dot", `Dot); ("verilog", `Verilog);
                    ("stats", `Stats); ("hydra", `Hydra) ])
          `Paper
      & info [ "format"; "f" ]
          ~doc:"output format: paper, dot, verilog, stats, hydra (loadable)")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize"; "O" ]
          ~doc:"run constant folding / dedup / dead-gate removal first")
  in
  let run name format optimize =
    let nl = circuit_of_name name in
    let nl = if optimize then Hydra_netlist.Optimize.optimize nl else nl in
    match format with
    | `Paper -> print_endline (F.to_paper_string nl)
    | `Dot -> print_string (F.to_dot ~name:"circuit" nl)
    | `Verilog -> print_string (F.to_verilog ~name:"circuit" nl)
    | `Stats -> print_endline (F.stats_string nl)
    | `Hydra -> print_string (Hydra_netlist.Serial.to_string nl)
  in
  Cmd.v (Cmd.info "netlist" ~doc:"Emit the netlist of a named circuit")
    Term.(const run $ circuit_arg $ format $ optimize)

(* The named-circuit catalogue `lint --all` and `faults --all` sweep:
   every circuit family the CLI knows, at the sizes CI pins (fig1 …
   cpu:8), plus the sizes the examples exercise (ripple:12 /
   cla-sklansky:12 are timing_glitch's adders). *)
let lint_catalogue =
  [
    "fig1"; "mux1"; "ripple:8"; "ripple:12"; "cla-sklansky:8";
    "cla-sklansky:12"; "cla-brent-kung:8"; "cla-kogge-stone:8"; "alu:16";
    "regfile1:4"; "sorter:4x4"; "secded"; "cpu:6"; "cpu:8";
  ]

(* ---- faults ---- *)

(* Load a target the way lint does: a saved netlist file if the path
   exists, a named catalogue circuit otherwise. *)
let load_target ~cmd target =
  try
    if Sys.file_exists target then Hydra_netlist.Serial.of_file target
    else circuit_of_name target
  with
  | Hydra_netlist.Serial.Parse_error { line; message } ->
    Printf.eprintf "%s: %s: parse error at line %d: %s\n" cmd target line
      message;
    exit 1
  | Failure m ->
    Printf.eprintf "%s: %s: %s\n" cmd target m;
    exit 1

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let faults_cmd =
  let module C = Hydra_verify.Campaign in
  let targets =
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT|FILE")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"campaign the whole named-circuit catalogue")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "quick catalogue sweep (the CI job): every fault model, at \
             most 61 faults and 16 cycles per circuit")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit machine-readable JSON")
  in
  let model =
    Arg.(
      value
      & opt
          (enum
             [ ("stuck", `Stuck); ("seu", `Seu);
               ("intermittent", `Intermittent); ("all", `All) ])
          `Stuck
      & info [ "model" ] ~doc:"fault model: stuck, seu, intermittent, all")
  in
  let cycles =
    Arg.(value & opt int 32 & info [ "cycles" ] ~doc:"random-stimulus cycles")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~doc:"stimulus and intermittent-coin seed")
  in
  let rate =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~doc:"intermittent per-cycle flip probability")
  in
  let at =
    Arg.(
      value & opt int 0
      & info [ "at" ] ~doc:"SEU injection cycle (0 or later)")
  in
  let max_faults =
    Arg.(
      value & opt (some int) None
      & info [ "max-faults" ] ~doc:"truncate the fault list")
  in
  let domains =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~doc:"domains for chunked campaigns")
  in
  let status =
    Arg.(
      value & opt_all string []
      & info [ "status" ]
          ~doc:
            "output excluded from the divergence comparison and sampled \
             as a per-fault status flag (repeatable; e.g. --status single)")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print every verdict")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "wall-clock budget per campaign in seconds; past it the \
             campaign fails with a deadline-exceeded error instead of \
             running on")
  in
  let retries =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "retry transiently-failed campaign chunks up to N extra \
             times with exponential backoff")
  in
  let max_lanes =
    Arg.(
      value & opt (some int) None
      & info [ "max-lanes" ] ~docv:"LANES"
          ~doc:
            "admission budget in engine lanes: over-budget campaigns \
             degrade to fewer slab words before being shed")
  in
  let run targets all smoke json model cycles seed rate at max_faults domains
      status verbose deadline retries max_lanes =
    let module R = Hydra_engine.Resilience in
    let admission =
      Option.map
        (fun n ->
          try R.admission ~max_lanes:n ()
          with Invalid_argument _ ->
            Printf.eprintf
              "faults: --max-lanes %d: budget must be at least one 62-lane \
               word\n"
              n;
            exit 2)
        max_lanes
    in
    let targets = (if all || smoke then lint_catalogue else []) @ targets in
    if targets = [] then begin
      prerr_endline
        "faults: no targets (name circuits/files, or use --all / --smoke)";
      exit 2
    end;
    if at < 0 then begin
      Printf.eprintf "faults: --at %d: the SEU cycle must be 0 or later\n" at;
      exit 2
    end;
    if cycles < 1 then begin
      Printf.eprintf "faults: --cycles %d: must be at least 1\n" cycles;
      exit 2
    end;
    (match max_faults with
    | Some n when n < 0 ->
      Printf.eprintf "faults: --max-faults %d: must be 0 or more\n" n;
      exit 2
    | _ -> ());
    if not (rate >= 0.0 && rate <= 1.0) then begin
      Printf.eprintf "faults: --rate %g: must be a probability in [0,1]\n" rate;
      exit 2
    end;
    (match domains with
    | Some n when n < 1 ->
      Printf.eprintf "faults: --domains %d: must be at least 1\n" n;
      exit 2
    | _ -> ());
    (match retries with
    | Some n when n < 0 ->
      Printf.eprintf "faults: --retries %d: must be 0 or more\n" n;
      exit 2
    | _ -> ());
    (match deadline with
    | Some d when not (d > 0.0) ->
      Printf.eprintf "faults: --deadline %g: must be more than 0 seconds\n" d;
      exit 2
    | _ -> ());
    let retry =
      Option.map (fun n -> R.retry ~max_attempts:(n + 1) ()) retries
    in
    let model = if smoke then `All else model in
    let cycles = if smoke then 16 else cycles in
    let max_faults = if smoke then Some 61 else max_faults in
    let json_blocks =
      List.map
        (fun target ->
          let nl = load_target ~cmd:"faults" target in
          let sites () =
            List.sort_uniq compare (List.map C.site_of (C.all_stuck_at nl))
          in
          let faults_of = function
            | `Stuck -> C.all_stuck_at nl
            | `Seu -> C.all_seu ~at_cycle:at nl
            | `Intermittent ->
              List.map (fun site -> C.Intermittent { site; rate; seed })
                (sites ())
          in
          let faults =
            match model with
            | `All -> faults_of `Stuck @ faults_of `Seu @ faults_of `Intermittent
            | (`Stuck | `Seu | `Intermittent) as m -> faults_of m
          in
          let total = List.length faults in
          let faults =
            match max_faults with
            | Some n when total > n -> take n faults
            | _ -> faults
          in
          let truncated = List.length faults < total in
          let stimulus = C.random_stimulus ~seed ~cycles nl in
          let t0 = R.now () in
          let report =
            match
              C.run ?domains ~status_outputs:status ?deadline ?retry
                ?admission nl ~faults ~stimulus ~cycles
            with
            | r -> r
            | exception R.Deadline_exceeded _ ->
              Printf.eprintf
                "faults: %s: deadline of %.3g s exceeded after %.3f s\n"
                target (Option.value deadline ~default:0.0) (R.now () -. t0);
              exit 1
            | exception R.Shed _ ->
              Printf.eprintf
                "faults: %s: shed by the admission controller (budget %d \
                 lanes is less than one 62-lane word free)\n"
                target
                (Option.value max_lanes ~default:0);
              exit 1
          in
          if json then
            Printf.sprintf "{\"target\":%s,\"components\":%d,\"report\":%s}"
              (Hydra_analyze.Diagnostic.json_string target)
              (N.size nl) (C.to_json report)
          else begin
            Printf.printf "== %s (%d components) ==\n" target (N.size nl);
            if truncated then
              Printf.printf "  (fault list truncated to %d of %d)\n"
                report.C.total total;
            Printf.printf "  %s\n" (C.summary_string report);
            (match C.mean_latency report with
            | Some l ->
              Printf.printf "  mean detection latency: %.2f cycles\n" l
            | None -> ());
            if verbose then
              List.iter
                (fun v -> Printf.printf "    %s\n" (C.verdict_to_string v))
                report.C.verdicts;
            ""
          end)
        targets
    in
    if json then
      Printf.printf "{\"version\":1,\"results\":[%s]}\n"
        (String.concat "," json_blocks)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection campaigns (stuck-at, SEU, intermittent) on named \
          circuits or saved netlist files: every fault classified \
          detected/latent/masked against a golden lane")
    Term.(
      const run $ targets $ all $ smoke $ json $ model $ cycles $ seed $ rate
      $ at $ max_faults $ domains $ status $ verbose $ deadline $ retries
      $ max_lanes)

(* ---- lint ---- *)

let lint_cmd =
  let module D = Hydra_analyze.Diagnostic in
  let module Lint = Hydra_analyze.Lint in
  let module Certify = Hydra_analyze.Certify in
  let targets =
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT|FILE")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"lint the whole named-circuit catalogue")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit machine-readable JSON")
  in
  let sarif =
    Arg.(
      value & flag
      & info [ "sarif" ] ~doc:"emit SARIF 2.1.0 (for code-review tooling)")
  in
  let fanout_threshold =
    Arg.(
      value
      & opt int Lint.default_config.Lint.fanout_threshold
      & info [ "fanout-threshold" ] ~doc:"fanout-hotspot rule threshold")
  in
  let path_budget =
    Arg.(
      value & opt (some int) None
      & info [ "path-budget" ]
          ~doc:"critical-path budget in gate delays (error when exceeded)")
  in
  let xsim_cycles =
    Arg.(
      value
      & opt int Lint.default_config.Lint.xsim_cycles
      & info [ "xsim-cycles" ]
          ~doc:"cycles of X-propagation for the uninit-state rule")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "also translation-validate Optimize and Layout.rank_major on \
             each circuit")
  in
  let run targets all json sarif fanout_threshold path_budget xsim_cycles
      certify =
    let config = { Lint.fanout_threshold; path_budget; xsim_cycles } in
    let targets =
      (if all then lint_catalogue else []) @ targets
    in
    if json && sarif then begin
      prerr_endline "lint: --json and --sarif are mutually exclusive";
      exit 2
    end;
    if targets = [] then begin
      prerr_endline
        "lint: no targets (name circuits/files, or use --all for the \
         catalogue)";
      exit 2
    end;
    let failed = ref false in
    let sarif_acc = ref [] in
    let json_blocks =
      List.map
        (fun target ->
          let nl =
            try
              if Sys.file_exists target then
                Hydra_netlist.Serial.of_file target
              else circuit_of_name target
            with
            | Hydra_netlist.Serial.Parse_error { line; message } ->
              Printf.eprintf "lint: %s: parse error at line %d: %s\n" target
                line message;
              exit 1
            | Failure m ->
              Printf.eprintf "lint: %s: %s\n" target m;
              exit 1
          in
          let diags = Lint.run ~config nl in
          let certs =
            if certify then
              [ snd (Certify.optimize nl); snd (Certify.rank_major nl) ]
            else []
          in
          if D.count_errors diags > 0 then failed := true;
          if List.exists (fun c -> not (Certify.certified c)) certs then
            failed := true;
          if sarif then begin
            sarif_acc := (target, diags) :: !sarif_acc;
            ""
          end
          else if json then
            Printf.sprintf
              "{\"target\":%s,\"components\":%d,\"diagnostics\":%s,\"certificates\":[%s]}"
              (D.json_string target) (N.size nl)
              (D.list_to_json diags)
              (String.concat ","
                 (List.map
                    (fun c ->
                      Printf.sprintf "{\"certified\":%b,\"detail\":%s}"
                        (Certify.certified c)
                        (D.json_string (Certify.describe c)))
                    certs))
          else begin
            Printf.printf "== %s (%d components) ==\n" target (N.size nl);
            if diags = [] then print_endline "  clean"
            else
              List.iter
                (fun d -> Printf.printf "  %s\n" (D.to_string d))
                diags;
            List.iter
              (fun c -> Printf.printf "  certify: %s\n" (Certify.describe c))
              certs;
            ""
          end)
        targets
    in
    if sarif then
      print_endline (D.to_sarif ~tool:"hydra-lint" (List.rev !sarif_acc));
    if json then
      Printf.printf "{\"version\":1,\"results\":[%s]}\n"
        (String.concat "," json_blocks);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint named circuits or saved netlist files (and optionally \
          certify their transforms); exits 1 on any error-severity \
          diagnostic")
    Term.(
      const run $ targets $ all $ json $ sarif $ fanout_threshold
      $ path_budget $ xsim_cycles $ certify)

(* ---- analyze ---- *)

let analyze_cmd =
  let module D = Hydra_analyze.Diagnostic in
  let module Df = Hydra_analyze.Dataflow in
  let module Sweep = Hydra_analyze.Sweep in
  let module Certify = Hydra_analyze.Certify in
  let targets =
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT|FILE")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"analyze the whole named-circuit catalogue")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"emit machine-readable JSON")
  in
  let sarif =
    Arg.(
      value & flag
      & info [ "sarif" ] ~doc:"emit SARIF 2.1.0 (for code-review tooling)")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "run the dataflow-driven sweep and translation-validate the \
             result (exits 1 if any run is refuted)")
  in
  let passes =
    Arg.(
      value & opt int 2
      & info [ "passes" ] ~doc:"random-stimulus passes for cross-checking")
  in
  let cycles =
    Arg.(value & opt int 16 & info [ "cycles" ] ~doc:"cycles per pass")
  in
  let seed =
    Arg.(value & opt int 0xdf1 & info [ "seed" ] ~doc:"stimulus seed")
  in
  let no_crosscheck =
    Arg.(
      value & flag
      & info [ "no-crosscheck" ]
          ~doc:"skip the simulation cross-check of the analysis verdicts")
  in
  let run targets all json sarif sweep passes cycles seed no_crosscheck =
    let targets = (if all then lint_catalogue else []) @ targets in
    if json && sarif then begin
      prerr_endline "analyze: --json and --sarif are mutually exclusive";
      exit 2
    end;
    if targets = [] then begin
      prerr_endline
        "analyze: no targets (name circuits/files, or use --all for the \
         catalogue)";
      exit 2
    end;
    let failed = ref false in
    let sarif_acc = ref [] in
    let json_blocks =
      List.map
        (fun target ->
          let nl = load_target ~cmd:"analyze" target in
          let df =
            try Df.create nl
            with Invalid_argument m ->
              Printf.eprintf "analyze: %s: %s\n" target m;
              exit 1
          in
          let stuck = Df.stuck_registers df in
          let consts = Df.constant_components df in
          let unobs = Df.masked df in
          let classes = Df.classes df in
          let rx_outputs = Df.reaching_x_outputs df in
          let cross =
            if no_crosscheck then None
            else Some (Df.crosscheck ~passes ~cycles ~seed df)
          in
          (match cross with Some (Error _) -> failed := true | _ -> ());
          let swept =
            if sweep then begin
              let _post, report, outcome =
                Certify.sweep ~passes ~cycles ~seed nl
              in
              if not (Certify.certified outcome) then failed := true;
              Some (report, outcome)
            end
            else None
          in
          if sarif then begin
            sarif_acc := (target, Df.diagnostics df) :: !sarif_acc;
            ""
          end
          else if json then begin
            let pair_json (i, b) =
              Printf.sprintf "{\"component\":%d,\"value\":%d}" i
                (Bool.to_int b)
            in
            let ints l = String.concat "," (List.map string_of_int l) in
            Printf.sprintf
              "{\"target\":%s,\"components\":%d,\"stuck_registers\":[%s],\"constants\":[%s],\"unobservable\":[%s],\"classes\":[%s],\"reaching_x_outputs\":[%s],\"crosscheck\":%s%s}"
              (D.json_string target) (N.size nl)
              (String.concat "," (List.map pair_json stuck))
              (String.concat "," (List.map pair_json consts))
              (ints unobs)
              (String.concat ","
                 (List.map (fun c -> "[" ^ ints c ^ "]") classes))
              (String.concat "," (List.map D.json_string rx_outputs))
              (D.json_string
                 (match cross with
                 | None -> "skipped"
                 | Some (Ok ()) -> "ok"
                 | Some (Error m) -> "failed: " ^ m))
              (match swept with
              | None -> ""
              | Some (r, outcome) ->
                Printf.sprintf
                  ",\"sweep\":{\"before\":%d,\"after\":%d,\"constants\":%d,\"merged\":%d,\"certified\":%b}"
                  r.Sweep.before r.Sweep.after r.Sweep.constants
                  r.Sweep.merged
                  (Certify.certified outcome))
          end
          else begin
            Printf.printf "== %s (%d components) ==\n" target (N.size nl);
            (match stuck with
            | [] -> print_endline "  stuck registers: none"
            | l ->
              Printf.printf "  stuck registers: %d (%s)\n" (List.length l)
                (String.concat ", "
                   (List.map
                      (fun (i, b) ->
                        Printf.sprintf "%s=%d" (N.describe nl i)
                          (Bool.to_int b))
                      (take 8 l))));
            Printf.printf "  sequential constants: %d component(s)\n"
              (List.length consts);
            Printf.printf "  unobservable logic: %d component(s)\n"
              (List.length unobs);
            Printf.printf
              "  equivalence classes: %d class(es), %d mergeable duplicate(s)\n"
              (List.length classes)
              (List.fold_left (fun acc c -> acc + List.length c - 1) 0 classes);
            (match rx_outputs with
            | [] -> print_endline "  reaching-X outputs: none"
            | l ->
              Printf.printf "  reaching-X outputs: %s\n"
                (String.concat ", " l));
            List.iter
              (fun (name, s) ->
                Printf.printf "  fixpoint %-10s %d visits, %d updates\n" name
                  s.Df.visits s.Df.updates)
              (Df.stats df);
            (match cross with
            | None -> print_endline "  crosscheck: skipped"
            | Some (Ok ()) ->
              Printf.printf "  crosscheck: ok (%d pass(es) x %d cycles)\n"
                passes cycles
            | Some (Error m) -> Printf.printf "  crosscheck: FAILED — %s\n" m);
            (match swept with
            | None -> ()
            | Some (r, outcome) ->
              Printf.printf "  sweep: %s\n" (Sweep.describe r);
              Printf.printf "  certify: %s\n" (Certify.describe outcome));
            ""
          end)
        targets
    in
    if sarif then
      print_endline (D.to_sarif ~tool:"hydra-analyze" (List.rev !sarif_acc));
    if json then
      Printf.printf "{\"version\":1,\"results\":[%s]}\n"
        (String.concat "," json_blocks);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Fixpoint dataflow analyses (sequential constants, observability, \
          reaching-X, equivalence classes) over named circuits or saved \
          netlist files, cross-checked against simulation; optionally run \
          the certified sweep.  Exits 1 on a failed cross-check or a \
          refuted sweep")
    Term.(
      const run $ targets $ all $ json $ sarif $ sweep $ passes $ cycles
      $ seed $ no_crosscheck)

(* ---- timing ---- *)

let timing_cmd =
  let circuit_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT") in
  let run name =
    let nl = circuit_of_name name in
    let lv = L.compute nl in
    Printf.printf "%s\n" (F.stats_string nl);
    Printf.printf "critical path: %d gate delays\n" lv.L.critical_path;
    if lv.L.cyclic <> [] then
      Printf.printf "WARNING: %d components on combinational cycles\n"
        (List.length lv.L.cyclic);
    let widths = Array.map Array.length lv.L.by_level in
    Printf.printf "levels: %d; widest level: %d components\n"
      (Array.length widths)
      (Array.fold_left max 0 widths)
  in
  Cmd.v (Cmd.info "timing" ~doc:"Static timing and size report")
    Term.(const run $ circuit_arg)

(* ---- sim ---- *)

let sim_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST") in
  let cycles = Arg.(value & opt int 8 & info [ "cycles"; "n" ] ~doc:"cycles to run") in
  let drives =
    Arg.(
      value & opt_all string []
      & info [ "drive"; "d" ]
          ~doc:"stimulus: NAME=0101 (one bit per cycle, last value holds)")
  in
  let run file cycles drives =
    let nl = Hydra_netlist.Serial.of_file file in
    let stimuli =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | None -> failwith ("bad --drive " ^ spec)
          | Some i ->
            let name = String.sub spec 0 i in
            let bits =
              String.sub spec (i + 1) (String.length spec - i - 1)
              |> Hydra_core.Bitvec.of_string
            in
            Hydra_engine.Testbench.Bit_values (name, bits))
        drives
    in
    let r =
      Hydra_engine.Testbench.run ~cycles ~stimuli ~expectations:[] nl
    in
    print_string
      (Hydra_engine.Wave.render
         (List.map (fun (n, vs) -> Hydra_engine.Wave.bit n vs) r.Hydra_engine.Testbench.observed))
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate a saved netlist (see 'netlist -f hydra') with scripted inputs")
    Term.(const run $ file $ cycles $ drives)

(* ---- equiv ---- *)

(* Slab-vs-wide equivalence sweep: every catalogue circuit (or the
   named targets), each slab width in --k, gated and ungated, checked
   word-for-word under Equiv's random sequential stimulus.  CI runs
   `hydra equiv --all --smoke`, so a slab kernel regression fails the
   pipeline, not just the bench. *)
let equiv_cmd =
  let module E = Hydra_verify.Equiv in
  let targets =
    Arg.(value & pos_all string [] & info [] ~docv:"CIRCUIT|FILE")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"sweep the whole named-circuit catalogue")
  in
  let ks =
    Arg.(
      value
      & opt (list int) [ 1; 4; 8 ]
      & info [ "k" ] ~doc:"slab widths (words per signal) to check")
  in
  let passes =
    Arg.(
      value & opt int 2
      & info [ "passes" ] ~doc:"random-stimulus passes per configuration")
  in
  let cycles =
    Arg.(value & opt int 16 & info [ "cycles" ] ~doc:"cycles per pass")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"quick sweep (the CI job): one pass of 8 cycles")
  in
  let simd =
    Arg.(
      value & flag
      & info [ "simd" ]
          ~doc:
            "also check the C-stub kernels (vectorized where the build \
             supports it, scalar C elsewhere)")
  in
  let tuning =
    Arg.(
      value
      & opt (some string) None
      & info [ "tuning" ] ~docv:"SPEC"
          ~doc:
            "kernel tuning spec, e.g. block-words=1024,block-gates=0,\
             hot-after=4,probe-period=128 (unset keys keep defaults)")
  in
  let run targets all ks passes cycles smoke simd tuning =
    let targets = (if all then lint_catalogue else []) @ targets in
    if targets = [] then begin
      prerr_endline
        "equiv: no targets (name circuits/files, or use --all for the \
         catalogue)";
      exit 2
    end;
    if List.exists (fun k -> k < 1) ks then begin
      prerr_endline "equiv: --k values must be >= 1";
      exit 2
    end;
    if passes < 1 || cycles < 1 then begin
      Printf.eprintf "equiv: --passes %d --cycles %d: both must be at least 1\n"
        passes cycles;
      exit 2
    end;
    let passes = if smoke then 1 else passes in
    let cycles = if smoke then 8 else cycles in
    let tuning =
      match tuning with
      | None -> None
      | Some spec -> (
        try Some (Hydra_engine.Kernel.tuning_of_spec spec)
        with Invalid_argument msg ->
          prerr_endline ("equiv: " ^ msg);
          exit 2)
    in
    let simds = if simd then [ false; true ] else [ false ] in
    let failed = ref false in
    List.iter
      (fun target ->
        let nl = load_target ~cmd:"equiv" target in
        let bad = ref [] in
        let nconfigs = ref 0 in
        List.iter
          (fun k ->
            List.iter
              (fun gating ->
                List.iter
                  (fun simd ->
                    incr nconfigs;
                    match
                      E.slab_vs_wide ~passes ~cycles ~k ~gating ~simd ?tuning
                        nl
                    with
                    | E.Seq_equivalent -> ()
                    | E.Seq_mismatch { output; cycle; _ } ->
                      bad :=
                        ( Printf.sprintf "k=%d%s%s" k
                            (if gating then " gated" else "")
                            (if simd then " simd" else ""),
                          output, cycle )
                        :: !bad)
                  simds)
              [ false; true ])
          ks;
        if !bad = [] then
          Printf.printf "%-18s ok (%d configurations, %d pass(es) x %d cycles)\n"
            target !nconfigs passes cycles
        else begin
          failed := true;
          List.iter
            (fun (label, output, cycle) ->
              Printf.printf
                "%-18s MISMATCH %s: output %s diverges from wide at cycle %d\n"
                target label output cycle)
            (List.rev !bad)
        end)
      targets;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Check the slab engine against the wide engine on named circuits \
          or saved netlist files (random sequential stimulus, every word, \
          gated and ungated); exits 1 on any mismatch")
    Term.(const run $ targets $ all $ ks $ passes $ cycles $ smoke $ simd
          $ tuning)

(* ---- algo ---- *)

let algo_cmd =
  let run () =
    print_string (Hydra_cpu.Control.to_string Hydra_cpu.Control.algorithm)
  in
  Cmd.v
    (Cmd.info "algo"
       ~doc:"Print the processor's control algorithm (paper section 6.2)")
    Term.(const run $ const ())

let () =
  let doc = "Hydra: functional hardware description in OCaml" in
  let info = Cmd.info "hydra" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ asm_cmd; dis_cmd; run_cmd; netlist_cmd; lint_cmd; analyze_cmd;
            timing_cmd; faults_cmd; equiv_cmd; sim_cmd; algo_cmd ]))
