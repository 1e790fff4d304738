(* Netlist output formats.

   [to_paper_string] prints the exact 4-tuple shape of paper section 4.4:
   input ports, output ports, components, and wires
   [((source, out_port), [(sink, in_port); ...])].  [to_dot] and
   [to_verilog] stand in for the fabrication back ends (wire-wrap, VLSI
   CAD) that consume netlists in the paper's tool chain. *)

let buf_add = Buffer.add_string

(* Renumber so inputs come first, then outputs, then internal components —
   the paper's presentation order. *)
let paper_numbering (nl : Netlist.t) =
  let n = Netlist.size nl in
  let renum = Array.make n (-1) in
  let next = ref 0 in
  let assign i =
    renum.(i) <- !next;
    incr next
  in
  List.iter (fun (_, i) -> assign i) nl.Netlist.inputs;
  List.iter (fun (_, i) -> assign i) nl.Netlist.outputs;
  for i = 0 to n - 1 do
    if renum.(i) < 0 then assign i
  done;
  renum

let comp_label = function
  | Netlist.Inport s -> Printf.sprintf "InPort %S" s
  | Netlist.Outport s -> Printf.sprintf "OutPort %S" s
  | Netlist.Constant b -> if b then "Const1" else "Const0"
  | Netlist.Invc -> "Inv"
  | Netlist.And2c -> "And2"
  | Netlist.Or2c -> "Or2"
  | Netlist.Xor2c -> "Xor2"
  | Netlist.Dffc b -> if b then "Dff1" else "Dff"

let to_paper_string (nl : Netlist.t) =
  let renum = paper_numbering nl in
  let buf = Buffer.create 256 in
  let list_str items = "[" ^ String.concat ", " items ^ "]" in
  let inputs =
    List.map
      (fun (name, i) -> Printf.sprintf "(%d, InPort %S)" renum.(i) name)
      nl.Netlist.inputs
  in
  let outputs =
    List.map
      (fun (name, i) -> Printf.sprintf "(%d, OutPort %S)" renum.(i) name)
      nl.Netlist.outputs
  in
  let internals = ref [] in
  Array.iteri
    (fun i comp ->
      match comp with
      | Netlist.Inport _ | Netlist.Outport _ -> ()
      | _ ->
        internals :=
          Printf.sprintf "(%d, %s)" renum.(i) (comp_label comp) :: !internals)
    nl.Netlist.components;
  let internals = List.rev !internals in
  (* Wires, ordered by source id in the paper numbering. *)
  let { Netlist.off; sink; port } = Netlist.fanout nl in
  let wires = ref [] in
  for src = 0 to Netlist.size nl - 1 do
    if off.(src + 1) > off.(src) then
      let out_port = Netlist.input_arity nl.Netlist.components.(src) in
      let sink_strs =
        List.init (off.(src + 1) - off.(src)) (fun j ->
            let e = off.(src) + j in
            Printf.sprintf "(%d,%d)" renum.(sink.(e)) port.(e))
      in
      wires :=
        ( renum.(src),
          Printf.sprintf "((%d,%d), %s)" renum.(src) out_port
            (list_str sink_strs) )
        :: !wires
  done;
  let wires =
    List.sort (fun (a, _) (b, _) -> compare a b) !wires |> List.map snd
  in
  buf_add buf "(";
  buf_add buf (list_str inputs);
  buf_add buf ",\n ";
  buf_add buf (list_str outputs);
  buf_add buf ",\n ";
  buf_add buf (list_str internals);
  buf_add buf ",\n ";
  buf_add buf (list_str wires);
  buf_add buf ")";
  Buffer.contents buf

let to_dot ?(name = "circuit") (nl : Netlist.t) =
  let buf = Buffer.create 256 in
  buf_add buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  Array.iteri
    (fun i comp ->
      let shape, lbl =
        match comp with
        | Netlist.Inport s -> ("invtriangle", s)
        | Netlist.Outport s -> ("triangle", s)
        | Netlist.Constant b -> ("plaintext", if b then "1" else "0")
        | Netlist.Invc -> ("circle", "inv")
        | Netlist.And2c -> ("box", "and")
        | Netlist.Or2c -> ("box", "or")
        | Netlist.Xor2c -> ("box", "xor")
        | Netlist.Dffc _ -> ("box3d", "dff")
      in
      buf_add buf
        (Printf.sprintf "  n%d [shape=%s,label=\"%s\"];\n" i shape lbl))
    nl.Netlist.components;
  Array.iteri
    (fun sink drivers ->
      Array.iteri
        (fun port drv ->
          buf_add buf
            (Printf.sprintf "  n%d -> n%d [taillabel=\"%d\"];\n" drv sink port))
        drivers)
    nl.Netlist.fanin;
  buf_add buf "}\n";
  Buffer.contents buf

(* Structural Verilog: one wire per component output, assigns for gates, a
   clocked always block per dff.  Identifier sanitation keeps port names
   legal. *)
let sanitize s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' then c else '_') s

let to_verilog ?(name = "circuit") (nl : Netlist.t) =
  let buf = Buffer.create 1024 in
  let wire i = Printf.sprintf "n%d" i in
  let in_ports = List.map (fun (s, _) -> sanitize s) nl.Netlist.inputs in
  let out_ports = List.map (fun (s, _) -> sanitize s) nl.Netlist.outputs in
  let has_dff =
    Array.exists (function Netlist.Dffc _ -> true | _ -> false)
      nl.Netlist.components
  in
  let ports =
    (if has_dff then [ "input clk" ] else [])
    @ List.map (fun p -> "input " ^ p) in_ports
    @ List.map (fun p -> "output " ^ p) out_ports
  in
  buf_add buf
    (Printf.sprintf "module %s(%s);\n" (sanitize name) (String.concat ", " ports));
  Array.iteri
    (fun i comp ->
      let f0 () = wire nl.Netlist.fanin.(i).(0) in
      let f1 () = wire nl.Netlist.fanin.(i).(1) in
      match comp with
      | Netlist.Inport s ->
        buf_add buf (Printf.sprintf "  wire %s = %s;\n" (wire i) (sanitize s))
      | Netlist.Outport _ -> ()
      | Netlist.Constant b ->
        buf_add buf
          (Printf.sprintf "  wire %s = 1'b%d;\n" (wire i) (Bool.to_int b))
      | Netlist.Invc ->
        buf_add buf (Printf.sprintf "  wire %s = ~%s;\n" (wire i) (f0 ()))
      | Netlist.And2c ->
        buf_add buf
          (Printf.sprintf "  wire %s = %s & %s;\n" (wire i) (f0 ()) (f1 ()))
      | Netlist.Or2c ->
        buf_add buf
          (Printf.sprintf "  wire %s = %s | %s;\n" (wire i) (f0 ()) (f1 ()))
      | Netlist.Xor2c ->
        buf_add buf
          (Printf.sprintf "  wire %s = %s ^ %s;\n" (wire i) (f0 ()) (f1 ()))
      | Netlist.Dffc init ->
        buf_add buf
          (Printf.sprintf "  reg %s = 1'b%d;\n" (wire i) (Bool.to_int init));
        buf_add buf
          (Printf.sprintf "  always @(posedge clk) %s <= %s;\n" (wire i) (f0 ())))
    nl.Netlist.components;
  List.iter
    (fun (s, i) ->
      buf_add buf
        (Printf.sprintf "  assign %s = %s;\n" (sanitize s)
           (wire nl.Netlist.fanin.(i).(0))))
    nl.Netlist.outputs;
  buf_add buf "endmodule\n";
  Buffer.contents buf

let stats_string nl =
  let s = Netlist.stats nl in
  Printf.sprintf
    "components: %d (gates %d, dffs %d, inputs %d, outputs %d, constants %d)"
    s.Netlist.total s.Netlist.gates s.Netlist.dffs s.Netlist.inports
    s.Netlist.outports s.Netlist.constants
