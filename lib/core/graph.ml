(* Graph semantics: a signal is a node in a circuit graph (paper section
   4.4, first step of netlist generation).

   Executing a circuit specification at this instance builds a graph
   isomorphic to the circuit schematic: each gate application allocates a
   node whose children are the argument nodes, sharing included.  Feedback
   produces circular graphs via forward references, which the traversals in
   {!Hydra_netlist} resolve with an id-based visited set. *)

type t = { id : int; mutable def : def; mutable names : string list }

and def =
  | Input of string
  | Const of bool
  | Inv of t
  | And2 of t * t
  | Or2 of t * t
  | Xor2 of t * t
  | Dff of bool * t
  | Forward of t option ref

(* Node ids are drawn atomically, so graphs built on several domains at
   once never share an id: extraction keys on ids, and two nodes with one
   id would be merged into one component. *)
let counter = Atomic.make 1

let node def = { id = Atomic.fetch_and_add counter 1; def; names = [] }

let input name = node (Input name)
let constant b = node (Const b)
let zero = constant false
let one = constant true
let inv a = node (Inv a)
let and2 a b = node (And2 (a, b))
let or2 a b = node (Or2 (a, b))
let xor2 a b = node (Xor2 (a, b))

let label name s =
  s.names <- name :: s.names;
  s

let dff_init init x = node (Dff (init, x))
let dff x = dff_init false x

let feedback f =
  let r = ref None in
  let loop = node (Forward r) in
  let out = f loop in
  r := Some out;
  out

let feedback_list k f =
  let refs = Array.init k (fun _ -> ref None) in
  let loops = Array.to_list (Array.map (fun r -> node (Forward r)) refs) in
  let outs = f loops in
  if List.length outs <> k then invalid_arg "Graph.feedback_list: wrong width";
  List.iteri (fun i out -> refs.(i) := Some out) outs;
  outs

(* [resolve] follows forward references introduced by feedback until it
   reaches a real node.  A [Forward] that was never patched (a [feedback]
   body that returned its own argument) is a construction error. *)
let rec resolve s =
  match s.def with
  | Forward r -> (
      match !r with
      | Some s' -> resolve s'
      | None -> failwith "Graph.resolve: unresolved feedback loop")
  | Input _ | Const _ | Inv _ | And2 _ | Or2 _ | Xor2 _ | Dff _ -> s

let id s = (resolve s).id
let name s = match (resolve s).names with [] -> None | n :: _ -> Some n

(* Children of a node, with forwards resolved. *)
let children s =
  match (resolve s).def with
  | Input _ | Const _ -> []
  | Inv a | Dff (_, a) -> [ resolve a ]
  | And2 (a, b) | Or2 (a, b) | Xor2 (a, b) -> [ resolve a; resolve b ]
  | Forward _ -> assert false

let inputs_list names = List.map input names
