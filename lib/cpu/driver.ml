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
   gate-level system netlist, 62 programs per pass of a k = 1 slab,
   passes sharded across domains ({!Hydra_engine.Sharded}).  Each lane gets the exact
   input schedule [run_structural] would generate for its program — DMA
   load at addresses 0.., a start pulse at t = program length, then free
   running — so lanes with different program lengths start (and halt)
   independently. *)

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
  let results = Array.make nprog { halted = false; cycles = 0; pc = 0 } in
  let lanes = P.lanes in
  let npasses = (nprog + lanes - 1) / lanes in
  Sh.dispatch sh npasses (fun sim p ->
      let base = p * lanes in
      let count = min lanes (nprog - base) in
      let lens = Array.init count (fun l -> Array.length progs.(base + l)) in
      let max_len = Array.fold_left max 0 lens in
      let limit = max_len + max_cycles in
      Slab.reset sim;
      let halted_mask = ref 0 in
      let all = (1 lsl count) - 1 in
      let t = ref 0 in
      while !halted_mask <> all && !t < limit do
        let t0 = !t in
        let start_w = ref 0 and dma_w = ref 0 in
        for l = 0 to count - 1 do
          if t0 = lens.(l) then start_w := !start_w lor (1 lsl l);
          if t0 < lens.(l) then dma_w := !dma_w lor (1 lsl l)
        done;
        Slab.set_input sim "start" !start_w;
        Slab.set_input sim "dma" !dma_w;
        (* dma address: the address is [t0] in every still-loading lane
           and 0 elsewhere, so a bit of [da] is the active mask or 0 *)
        List.iteri
          (fun i b ->
            Slab.set_input sim (Printf.sprintf "da%d" i) (if b then !dma_w else 0))
          (word_of_int t0);
        (* dma data: lane [l] carries its own program's word [t0] *)
        let dd_words = Array.make Isa.word_size 0 in
        for l = 0 to count - 1 do
          if t0 < lens.(l) then
            List.iteri
              (fun i b ->
                if b then dd_words.(i) <- dd_words.(i) lor (1 lsl l))
              (word_of_int progs.(base + l).(t0))
        done;
        Array.iteri
          (fun i w -> Slab.set_input sim (Printf.sprintf "dd%d" i) w)
          dd_words;
        Slab.settle sim;
        let newly = Slab.output sim "halted" land lnot !halted_mask land all in
        if newly <> 0 then begin
          let pc_bits =
            List.init Isa.word_size (fun i ->
                Slab.output sim (Printf.sprintf "pc%d" i))
          in
          for l = 0 to count - 1 do
            if newly land (1 lsl l) <> 0 then begin
              let pc =
                Bitvec.to_int (List.map (fun w -> P.lane w l) pc_bits)
              in
              results.(base + l) <-
                { halted = true; cycles = t0 - lens.(l); pc }
            end
          done;
          halted_mask := !halted_mask lor newly
        end;
        Slab.tick sim;
        incr t
      done;
      for l = 0 to count - 1 do
        if !halted_mask land (1 lsl l) = 0 then
          results.(base + l) <-
            { halted = false; cycles = max 0 (!t - 1 - lens.(l)); pc = 0 }
      done);
  if owned then Sh.shutdown sh;
  results
