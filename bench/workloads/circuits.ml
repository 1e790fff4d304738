(* Named circuits, spelled and wired as the [hydra] CLI builds them
   ("ripple:8", "cla-kogge-stone:32", "alu:16", "sorter:4x8", "wallace:64",
   "cpu:6"), built from source through the graph semantics on every call:
   building is one of the layers the benchmark times.  The CLI's own
   catalogue lives in its executable, which the benchmark cannot link. *)

module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module P = Hydra_core.Patterns

let inputs prefix n =
  List.init n (fun i -> G.input (Printf.sprintf "%s%d" prefix i))

let numbered prefix sigs = List.mapi (fun i s -> (Printf.sprintf "%s%d" prefix i, s)) sigs

let adder_outputs (cout, sums) = ("cout", cout) :: numbered "s" sums

let split name =
  match String.index_opt name ':' with
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> invalid_arg ("Circuits.build: missing size in " ^ name)

let build name =
  let module A = Hydra_circuits.Arith.Make (G) in
  let family, size = split name in
  let n () = int_of_string size in
  match family with
  | "ripple" ->
    N.of_graph
      ~outputs:(adder_outputs (A.ripple_add G.zero (List.combine (inputs "x" (n ())) (inputs "y" (n ())))))
  | "cla-sklansky" | "cla-brent-kung" | "cla-kogge-stone" ->
    let network =
      match family with
      | "cla-sklansky" -> P.Sklansky
      | "cla-brent-kung" -> P.Brent_kung
      | _ -> P.Kogge_stone
    in
    N.of_graph
      ~outputs:
        (adder_outputs
           (A.cla_add ~network G.zero (List.combine (inputs "x" (n ())) (inputs "y" (n ())))))
  | "alu" ->
    let module Alu = Hydra_circuits.Alu.Make (G) in
    let ovfl, r = Alu.alu (inputs "op" 4) (inputs "x" (n ())) (inputs "y" (n ())) in
    N.of_graph ~outputs:(("ovfl", ovfl) :: numbered "r" r)
  | "sorter" ->
    let module Sorter = Hydra_circuits.Sorter.Make (G) in
    let words, width =
      match String.split_on_char 'x' size with
      | [ a; b ] -> (int_of_string a, int_of_string b)
      | _ -> invalid_arg ("Circuits.build: sorter size is <n>x<w>: " ^ name)
    in
    let sorted =
      Sorter.sort (List.init words (fun i -> inputs (Printf.sprintf "w%d_" i) width))
    in
    N.of_graph
      ~outputs:(List.concat (List.mapi (fun i w -> numbered (Printf.sprintf "o%d_" i) w) sorted))
  | "wallace" ->
    let module W = Hydra_circuits.Wallace.Make (G) in
    let prod = W.multw (inputs "x" (n ())) (inputs "y" (n ())) in
    N.of_graph ~outputs:(numbered "p" (List.map G.dff prod))
  | "cpu" ->
    let module Sys = Hydra_cpu.System.Make (G) in
    let outs =
      Sys.system ~mem_bits:(n ())
        { Sys.start = G.input "start"; dma = G.input "dma"; dma_a = inputs "da" 16;
          dma_d = inputs "dd" 16 }
    in
    N.of_graph
      ~outputs:
        (("halted", outs.Sys.halted)
        :: numbered "pc" outs.Sys.dp.Sys.D.pc
        @ numbered "r" outs.Sys.dp.Sys.D.r)
  | _ -> invalid_arg ("Circuits.build: unknown circuit " ^ name)
