(* Simulation driver (paper section 6.4).

   "Hydra provides a set of tools for defining simulation drivers... it
   takes the machine language program to be executed, generates the
   control signals needed to load it into memory via direct memory access
   I/O (DMA), it starts the machine, and it formats the various control
   and datapath outputs."

   Two memory configurations:
   - [run_structural]: the whole system, gate-level RAM included, runs in
     the stream semantics; the program is loaded through the DMA circuit.
   - [run_behavioural]: the processor core runs at gate level; the memory
     is an OCaml array driven through the exposed memory bus.  This is the
     substitution for a full 64K-word gate-level RAM (see DESIGN.md) and
     lets long programs run quickly. *)

module S = Hydra_core.Stream_sim
module Bitvec = Hydra_core.Bitvec
module Sys_c = System.Make (S)

type trace_entry = {
  cycle : int;
  state : string;
  pc : int;
  ir : int;
  ad : int;
  r : int;
  a : int;
  b : int;
  ma : int;
  indat : int;
}

type result = {
  trace : trace_entry list;
  events : Golden.event list;  (* reg/mem writes and jumps, in order *)
  cycles : int;                (* cycles from start pulse to halt *)
  halted : bool;
}

let word_of_int = Bitvec.of_int ~width:Isa.word_size

(* Observation plumbing: evaluate a word of signals at a cycle. *)
let word_at t ws = Bitvec.to_int (List.map (fun s -> S.at s t) ws)

let state_name_at t states =
  match
    List.find_opt (fun (_, s) -> S.at s t) states
  with
  | Some (n, _) -> n
  | None -> "-"

let trace_fmt e =
  Printf.sprintf "%4d  %-13s pc=%04x ir=%04x ad=%04x r=%04x a=%04x b=%04x"
    e.cycle e.state e.pc e.ir e.ad e.r e.a e.b

(* Shared per-cycle observation. *)
let observe (outs : Sys_c.outputs) t =
  let dp = outs.Sys_c.dp in
  {
    cycle = t;
    state = state_name_at t outs.Sys_c.control.Sys_c.CC.states;
    pc = word_at t dp.Sys_c.D.pc;
    ir = word_at t dp.Sys_c.D.ir;
    ad = word_at t dp.Sys_c.D.ad;
    r = word_at t dp.Sys_c.D.r;
    a = word_at t dp.Sys_c.D.a;
    b = word_at t dp.Sys_c.D.b;
    ma = word_at t dp.Sys_c.D.ma;
    indat = word_at t outs.Sys_c.mem_rdata;
  }

let events_at (outs : Sys_c.outputs) ~dma_active t =
  let dp = outs.Sys_c.dp in
  let ctl c = S.at (outs.Sys_c.control.Sys_c.CC.ctl c) t in
  let evs = ref [] in
  if not (dma_active t) then begin
    if ctl Control.Rf_ld then
      evs :=
        Golden.Reg_write
          { reg = word_at t dp.Sys_c.D.ir_d; value = word_at t dp.Sys_c.D.p }
        :: !evs;
    if ctl Control.Sto then
      evs :=
        Golden.Mem_write
          { addr = word_at t dp.Sys_c.D.ma; value = word_at t dp.Sys_c.D.a }
        :: !evs;
    (* a taken jump: pc loaded outside the fetch/rx-fetch states *)
    let state = state_name_at t outs.Sys_c.control.Sys_c.CC.states in
    if
      ctl Control.Pc_ld
      && (state = "st_jump1" || state = "st_jumpf1" || state = "st_jumpt1")
    then
      evs := Golden.Jump_taken { target = word_at t dp.Sys_c.D.r } :: !evs
  end;
  List.rev !evs

(* Run with the gate-level RAM: [mem_bits] address bits.  The program is
   DMA-loaded into addresses 0.., then [start] pulses. *)
let run_structural ?(mem_bits = 6) ?(max_cycles = 2000) ?(collect_trace = true)
    program =
  if List.length program > 1 lsl mem_bits then
    invalid_arg "Driver.run_structural: program does not fit in memory";
  S.reset ();
  let prog = Array.of_list program in
  let load_cycles = Array.length prog in
  let dma_active t = t < load_cycles in
  let start = S.input (fun t -> t = load_cycles) in
  let dma = S.input dma_active in
  let dma_a =
    List.init Isa.word_size (fun bit ->
        S.input (fun t ->
            if dma_active t then List.nth (word_of_int t) bit else false))
  in
  let dma_d =
    List.init Isa.word_size (fun bit ->
        S.input (fun t ->
            if dma_active t then List.nth (word_of_int prog.(t)) bit else false))
  in
  let outs = Sys_c.system ~mem_bits { Sys_c.start; dma; dma_a; dma_d } in
  let trace = ref [] and events = ref [] in
  let halted = ref false in
  let t = ref 0 in
  let total = ref 0 in
  while (not !halted) && !t < max_cycles + load_cycles do
    ignore (S.run_cycle [ outs.Sys_c.halted ] !t);
    if collect_trace && not (dma_active !t) then
      trace := observe outs !t :: !trace;
    events := List.rev_append (events_at outs ~dma_active !t) !events;
    if S.at outs.Sys_c.halted !t then halted := true;
    incr t
  done;
  total := !t - load_cycles - 1 (* cycles after the start pulse *);
  {
    trace = List.rev !trace;
    events = List.rev (if !halted then Golden.Halted :: !events else !events);
    cycles = max 0 !total;
    halted = !halted;
  }

(* Run with behavioural memory: the core is gate level; memory reads come
   from an OCaml array and writes observed on the bus update it at the end
   of each cycle. *)
let run_behavioural ?(mem_words = 65536) ?(max_cycles = 100_000)
    ?(collect_trace = true) program =
  S.reset ();
  let mem = Array.make mem_words 0 in
  List.iteri (fun i w -> mem.(i) <- w land 0xffff) program;
  let start = S.input (fun t -> t = 0) in
  let dma = S.input (fun _ -> false) in
  let zero_word = List.init Isa.word_size (fun _ -> S.zero) in
  (* indat: combinational read of the memory array at the current bus
     address.  Reading the address signals from inside the input closure
     is safe: the address derives from register outputs only. *)
  let outs_ref = ref None in
  let indat =
    List.init Isa.word_size (fun bit ->
        S.input (fun t ->
            match !outs_ref with
            | None -> false
            | Some outs ->
              let addr = word_at t outs.Sys_c.mem_addr mod mem_words in
              List.nth (word_of_int mem.(addr)) bit))
  in
  let outs =
    Sys_c.system_external_memory
      { Sys_c.start; dma; dma_a = zero_word; dma_d = zero_word }
      ~indat
  in
  outs_ref := Some outs;
  let trace = ref [] and events = ref [] in
  let halted = ref false in
  let t = ref 0 in
  while (not !halted) && !t < max_cycles do
    ignore (S.run_cycle [ outs.Sys_c.halted ] !t);
    if collect_trace then
      trace := observe outs !t :: !trace;
    events := List.rev_append (events_at outs ~dma_active:(fun _ -> false) !t) !events;
    (* commit the memory write for this cycle *)
    if S.at outs.Sys_c.mem_write !t then begin
      let addr = word_at !t outs.Sys_c.mem_addr mod mem_words in
      mem.(addr) <- word_at !t outs.Sys_c.mem_wdata
    end;
    if S.at outs.Sys_c.halted !t then halted := true;
    incr t
  done;
  {
    trace = List.rev !trace;
    events = List.rev (if !halted then Golden.Halted :: !events else !events);
    cycles = (if !t > 0 then !t - 1 else 0);
    halted = !halted;
  }

(* The structural RAM is internal to the circuit, so final memory (and
   register) contents are reconstructed by replaying the event log over
   the loaded program. *)
let final_memory ~size result ~program =
  let mem = Array.make size 0 in
  List.iteri (fun i w -> if i < size then mem.(i) <- w land 0xffff) program;
  List.iter
    (function
      | Golden.Mem_write { addr; value } -> if addr < size then mem.(addr) <- value
      | Golden.Reg_write _ | Golden.Jump_taken _ | Golden.Halted -> ())
    result.events;
  mem

let final_registers result =
  let regs = Array.make Isa.num_regs 0 in
  List.iter
    (function
      | Golden.Reg_write { reg; value } -> regs.(reg) <- value
      | Golden.Mem_write _ | Golden.Jump_taken _ | Golden.Halted -> ())
    result.events;
  regs

(* Multi-program mode: run many machine-language programs at once on the
   gate-level system netlist, one program per lane of a k = 1 slab
   ({!Hydra_engine.Sharded} replicas, one stream per domain).  Each lane
   keeps its own clock and gets the exact input schedule [run_structural]
   would generate for its program — DMA load at addresses 0.., a start
   pulse at clock = program length, then free running — and the moment
   its program halts or runs out of cycles the lane is reset and takes
   the next program, so no lane idles while programs remain. *)

let system_netlist ?(mem_bits = 6) () =
  let module G = Hydra_core.Graph in
  let module SysG = System.Make (G) in
  let word n =
    List.init Isa.word_size (fun i -> G.input (Printf.sprintf "%s%d" n i))
  in
  let start = G.input "start" and dma = G.input "dma" in
  let da = word "da" and dd = word "dd" in
  let outs = SysG.system ~mem_bits { SysG.start; dma; dma_a = da; dma_d = dd } in
  Hydra_netlist.Netlist.extract
    ~inputs:([ start; dma ] @ da @ dd)
    ~outputs:
      (("halted", outs.SysG.halted)
      :: List.mapi
           (fun i s -> (Printf.sprintf "pc%d" i, s))
           outs.SysG.dp.SysG.D.pc)

(* The [run_structural] input schedule for one program as per-port bool
   streams over {!system_netlist}'s ports — the stimulus format of
   cycle-driven consumers like [Hydra_verify.Campaign]: DMA load at
   addresses 0.., a start pulse at t = program length, then free running
   for [max_cycles] more cycles. *)
let program_stimulus ?(mem_bits = 6) ?(max_cycles = 2000) program =
  let prog = Array.of_list program in
  let len = Array.length prog in
  if len > 1 lsl mem_bits then
    invalid_arg "Driver.program_stimulus: program does not fit in memory";
  let cycles = len + max_cycles in
  let stream f = List.init cycles f in
  let bit_of w i = List.nth (word_of_int w) i in
  ( ("start", stream (fun t -> t = len))
    :: ("dma", stream (fun t -> t < len))
    :: (List.init Isa.word_size (fun i ->
            (Printf.sprintf "da%d" i, stream (fun t -> t < len && bit_of t i)))
       @ List.init Isa.word_size (fun i ->
             (Printf.sprintf "dd%d" i,
              stream (fun t -> t < len && bit_of prog.(t) i)))),
    cycles )

type batch_result = { halted : bool; cycles : int; pc : int }

let run_many ?(mem_bits = 6) ?(max_cycles = 2000) ?sharded ?domains programs =
  let module Slab = Hydra_engine.Slab in
  let module Sh = Hydra_engine.Sharded in
  let module P = Hydra_core.Packed in
  let nprog = Array.length programs in
  let progs = Array.map Array.of_list programs in
  Array.iter
    (fun p ->
      if Array.length p > 1 lsl mem_bits then
        invalid_arg "Driver.run_many: program does not fit in memory")
    progs;
  let sh, owned =
    match sharded with
    | Some sh when Sh.k sh <> 1 ->
      invalid_arg
        (Printf.sprintf
           "Driver.run_many: ?sharded engine has k=%d words per signal; \
            programs are packed 62 to a pass and need k=1"
           (Sh.k sh))
    | Some sh -> (sh, false)
    | None -> (Sh.create ?domains (system_netlist ~mem_bits ()), true)
  in
  (* port component indices, resolved once: the cycle loop pokes and
     peeks by index *)
  let nl = Sh.netlist sh in
  let port name =
    match List.assoc_opt name (nl.Hydra_netlist.Netlist.inputs @ nl.outputs) with
    | Some i -> i
    | None -> invalid_arg ("Driver.run_many: ?sharded engine has no port " ^ name)
  in
  let bus prefix =
    Array.init Isa.word_size (fun i -> port (Printf.sprintf "%s%d" prefix i))
  in
  let start_i = port "start" and dma_i = port "dma" and halted_i = port "halted" in
  let da_i = bus "da" and dd_i = bus "dd" and pc_i = bus "pc" in
  (* bus port [i] carries bit [top - i] of a word (Bitvec order) *)
  let top = Isa.word_size - 1 in
  let results = Array.make nprog { halted = false; cycles = 0; pc = 0 } in
  let lanes = P.lanes in
  let next = Atomic.make 0 in
  let streams = min (Sh.domains sh) ((nprog + lanes - 1) / lanes) in
  Sh.dispatch sh streams (fun sim _ ->
      Slab.reset sim;
      let owner = Array.make lanes 0 in
      let clock = Array.make lanes 0 in
      let busy = ref 0 in
      let da = Array.make Isa.word_size 0 and dd = Array.make Isa.word_size 0 in
      (* lane [l] takes the next unclaimed program, or goes idle *)
      let claim l =
        let p = Atomic.fetch_and_add next 1 in
        if p >= nprog then busy := !busy land lnot (1 lsl l)
        else begin
          owner.(l) <- p;
          clock.(l) <- 0;
          busy := !busy lor (1 lsl l)
        end
      in
      for l = 0 to lanes - 1 do
        claim l
      done;
      while !busy <> 0 do
        let start_w = ref 0 and dma_w = ref 0 in
        Array.fill da 0 Isa.word_size 0;
        Array.fill dd 0 Isa.word_size 0;
        for l = 0 to lanes - 1 do
          let bit = 1 lsl l in
          if !busy land bit <> 0 then begin
            let c = clock.(l) and pr = progs.(owner.(l)) in
            let len = Array.length pr in
            if c < len then begin
              (* DMA: address [c], data the program's word [c] *)
              dma_w := !dma_w lor bit;
              let w = pr.(c) in
              for i = 0 to top do
                if (c lsr (top - i)) land 1 <> 0 then da.(i) <- da.(i) lor bit;
                if (w lsr (top - i)) land 1 <> 0 then dd.(i) <- dd.(i) lor bit
              done
            end
            else if c = len then start_w := !start_w lor bit
          end
        done;
        Slab.poke sim start_i !start_w;
        Slab.poke sim dma_i !dma_w;
        for i = 0 to top do
          Slab.poke sim da_i.(i) da.(i);
          Slab.poke sim dd_i.(i) dd.(i)
        done;
        Slab.settle sim;
        let halted_w = Slab.peek sim halted_i in
        let finished = ref 0 in
        for l = 0 to lanes - 1 do
          let bit = 1 lsl l in
          if !busy land bit <> 0 then begin
            let c = clock.(l) in
            let len = Array.length progs.(owner.(l)) in
            let halted = halted_w land bit <> 0 in
            if halted || c + 1 >= len + max_cycles then begin
              let pc = ref 0 in
              if halted then
                for i = 0 to top do
                  pc := (!pc lsl 1) lor ((Slab.peek sim pc_i.(i) lsr l) land 1)
                done;
              results.(owner.(l)) <- { halted; cycles = max 0 (c - len); pc = !pc };
              finished := !finished lor bit
            end
            else clock.(l) <- c + 1
          end
        done;
        Slab.tick sim;
        if !finished <> 0 then begin
          Slab.reset_lanes sim ~word:0 !finished;
          for l = 0 to lanes - 1 do
            if !finished land (1 lsl l) <> 0 then claim l
          done
        end
      done);
  if owned then Sh.shutdown sh;
  results
