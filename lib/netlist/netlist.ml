(* Flat netlists extracted from the graph semantics (paper section 4.4,
   second step).

   A netlist lists the components of a circuit and the connections between
   their ports; it is the fabrication interface.  Extraction traverses the
   (possibly circular) graph with an id-based visited set, so feedback
   loops — which make the graph circular, isomorphic to the schematic —
   are handled exactly once. *)

module Graph = Hydra_core.Graph

type component =
  | Inport of string
  | Outport of string
  | Constant of bool
  | Invc
  | And2c
  | Or2c
  | Xor2c
  | Dffc of bool  (* power-up value *)

type t = {
  components : component array;
  fanin : int array array;
      (* [fanin.(c)] lists the components driving each input port of [c],
         in port order *)
  names : string list array;  (* labels attached via [Graph.label] *)
  inputs : (string * int) list;   (* port name, component index *)
  outputs : (string * int) list;
}

let component_name = function
  | Inport s -> "inport:" ^ s
  | Outport s -> "outport:" ^ s
  | Constant b -> if b then "const1" else "const0"
  | Invc -> "inv"
  | And2c -> "and2"
  | Or2c -> "or2"
  | Xor2c -> "xor2"
  | Dffc _ -> "dff"

let input_arity = function
  | Inport _ | Constant _ -> 0
  | Outport _ | Invc | Dffc _ -> 1
  | And2c | Or2c | Xor2c -> 2

(* Extraction ----------------------------------------------------------- *)

let extract ~inputs ~outputs =
  (* Post-order emission — children before parents, which reproduces the
     paper's component numbering — with an on-stack marker so that the
     circular graphs produced by feedback terminate.  One int table maps
     a graph id to its component index, or to [on_stack] while the
     node's children are being visited.  [visit] returns the index, so a
     fanin is known as soon as its child returns, except on a back edge,
     which records [-1 - id] (ids are positive).  Fanins go into one
     flat int array, each component's right after its predecessor's,
     and the per-component fanin arrays are built once all nodes have
     been emitted, back edges translated, in one burst: later passes
     walk them in index order, and so find them next to each other. *)
  let on_stack = -2 in
  let index = Int_table.create 256 in
  let comps = ref (Array.make 256 (Constant false)) in
  let labelled = ref [] in
  let flat = ref (Array.make 512 0) in
  let count = ref 0 and edges = ref 0 in
  let grow a fill =
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  let edge d =
    if !edges = Array.length !flat then flat := grow !flat 0;
    !flat.(!edges) <- d;
    incr edges
  in
  (* the edge to child [a] whose visit returned [i] *)
  let fan a i = edge (if i <> on_stack then i else -1 - a.Graph.id) in
  let add comp =
    let idx = !count in
    if idx = Array.length !comps then comps := grow !comps (Constant false);
    !comps.(idx) <- comp;
    count := idx + 1;
    idx
  in
  let rec visit node =
    let node = Graph.resolve node in
    let seen = Int_table.find_or_add index node.Graph.id on_stack in
    if seen <> -1 then seen
    else
      (* children first, so the node's edges are recorded after theirs *)
      let comp =
        match node.Graph.def with
        | Graph.Input s -> Inport s
        | Graph.Const b -> Constant b
        | Graph.Inv a -> child a; Invc
        | Graph.Dff (init, a) -> child a; Dffc init
        | Graph.And2 (a, b) -> two a b; And2c
        | Graph.Or2 (a, b) -> two a b; Or2c
        | Graph.Xor2 (a, b) -> two a b; Xor2c
        | Graph.Forward _ -> assert false
      in
      let idx = add comp in
      if node.Graph.names <> [] then labelled := (idx, List.rev node.Graph.names) :: !labelled;
      Int_table.replace index node.Graph.id idx;
      idx
  (* a child's edge is recorded once the whole child is done *)
  and child a =
    let a = Graph.resolve a in
    fan a (visit a)
  (* left child first; both edges follow both subtrees *)
  and two a b =
    let a = Graph.resolve a in
    let i = visit a in
    let b = Graph.resolve b in
    let j = visit b in
    fan a i;
    fan b j
  in
  (* Declared inputs come first (even when no gate reads them), so that a
     circuit's port list does not depend on which inputs happen to be
     used. *)
  List.iter (fun node -> ignore (visit node)) inputs;
  let outputs =
    List.map
      (fun (name, node) ->
        edge (visit node);
        (name, add (Outport name)))
      outputs
  in
  let n = !count and comps = !comps and flat = !flat in
  let next = ref 0 in
  let fanin =
    Array.init n (fun c ->
        let e = !next in
        next := e + input_arity comps.(c);
        Array.init (input_arity comps.(c)) (fun p ->
            let d = flat.(e + p) in
            if d >= 0 then d else Int_table.find index (-1 - d)))
  in
  let names = Array.make n [] in
  List.iter (fun (i, nms) -> names.(i) <- nms) !labelled;
  let inputs = ref [] in
  for i = n - 1 downto 0 do
    match comps.(i) with Inport s -> inputs := (s, i) :: !inputs | _ -> ()
  done;
  { components = Array.sub comps 0 n; fanin; names; inputs = !inputs; outputs }

(* Validation ----------------------------------------------------------- *)

(* Structural well-formedness: every fanin table matches its component's
   arity, every index is in bounds, nothing is driven by an outport, and
   the port lists point at the right components.  The engines index
   arrays with these numbers unchecked, so a corrupt netlist (a
   hand-edited file, a buggy transform) must be caught here, with a
   message, rather than later as an array bound violation. *)
let validate t =
  let n = Array.length t.components in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  try
    if Array.length t.fanin <> n then
      bad "fanin table has %d entries for %d components"
        (Array.length t.fanin) n;
    if Array.length t.names <> n then
      bad "names table has %d entries for %d components"
        (Array.length t.names) n;
    Array.iteri
      (fun i comp ->
        let fi = t.fanin.(i) in
        let arity = input_arity comp in
        if Array.length fi <> arity then
          bad "component %d (%s): %d fanin entries but arity %d" i
            (component_name comp) (Array.length fi) arity;
        Array.iteri
          (fun port d ->
            if d < 0 || d >= n then
              bad "component %d (%s) port %d: dangling fanin index %d \
                   (valid range 0..%d)"
                i (component_name comp) port d (n - 1)
            else
              match t.components.(d) with
              | Outport s ->
                bad "component %d (%s) port %d is driven by outport:%s" i
                  (component_name comp) port s
              | _ -> ())
          fi)
      t.components;
    List.iter
      (fun (s, i) ->
        if i < 0 || i >= n then
          bad "input port %S: component index %d out of bounds" s i
        else
          match t.components.(i) with
          | Inport s' when s' = s -> ()
          | c ->
            bad "input port %S: component %d is %s, not inport:%s" s i
              (component_name c) s)
      t.inputs;
    List.iter
      (fun (s, i) ->
        if i < 0 || i >= n then
          bad "output port %S: component index %d out of bounds" s i
        else
          match t.components.(i) with
          | Outport s' when s' = s -> ()
          | c ->
            bad "output port %S: component %d is %s, not outport:%s" s i
              (component_name c) s)
      t.outputs;
    Ok ()
  with Bad m -> Error m

(* A human label for diagnostics: kind, index, and the first attached
   [Graph.label] names when present.  Built by concatenation, not
   [Printf]: a fault campaign names every verdict through here. *)
let describe t i =
  let base = component_name t.components.(i) ^ "#" ^ string_of_int i in
  match t.names.(i) with
  | [] -> base
  | nms -> base ^ "(" ^ String.concat "," nms ^ ")"

(* Statistics ----------------------------------------------------------- *)

type stats = {
  gates : int;
  dffs : int;
  inports : int;
  outports : int;
  constants : int;
  total : int;
}

let stats t =
  let gates = ref 0
  and dffs = ref 0
  and ins = ref 0
  and outs = ref 0
  and consts = ref 0 in
  Array.iter
    (function
      | Invc | And2c | Or2c | Xor2c -> incr gates
      | Dffc _ -> incr dffs
      | Inport _ -> incr ins
      | Outport _ -> incr outs
      | Constant _ -> incr consts)
    t.components;
  {
    gates = !gates;
    dffs = !dffs;
    inports = !ins;
    outports = !outs;
    constants = !consts;
    total = Array.length t.components;
  }

let size t = Array.length t.components

(* Fanout, in compressed sparse rows: driver [d]'s (sink, port) pairs are
   entries [off.(d)] to [off.(d + 1) - 1] of [sink] and [port], ascending
   by sink and then by port.  Built by counting each driver's edges,
   prefix-summing the counts into offsets, then filling in sink order. *)
type fanout = { off : int array; sink : int array; port : int array }

let fanout t =
  let n = size t in
  let off = Array.make (n + 1) 0 in
  Array.iteri
    (fun c drivers ->
      Array.iteri
        (fun p d ->
          if d < 0 || d >= n then
            invalid_arg
              (Printf.sprintf
                 "Netlist.fanout: component %d (%s) port %d: driver index %d \
                  out of range 0..%d"
                 c (component_name t.components.(c)) p d (n - 1));
          off.(d + 1) <- off.(d + 1) + 1)
        drivers)
    t.fanin;
  for d = 1 to n do
    off.(d) <- off.(d) + off.(d - 1)
  done;
  let next = Array.sub off 0 n in
  let sink = Array.make off.(n) 0 and port = Array.make off.(n) 0 in
  Array.iteri
    (fun c drivers ->
      Array.iteri
        (fun p d ->
          let e = next.(d) in
          sink.(e) <- c;
          port.(e) <- p;
          next.(d) <- e + 1)
        drivers)
    t.fanin;
  { off; sink; port }

let fanout_degree f d = f.off.(d + 1) - f.off.(d)

(* Per-netlist memo ------------------------------------------------------ *)

(* Netlist values are only ever mutated while being constructed
   (builders patch fresh arrays before publishing the record), so
   physical identity implies content identity: [memo f] caches [f]'s
   result per physical netlist value.  The ephemeron keeps an entry from
   outliving its netlist, and the lock makes the memo safe from
   concurrent scheduler task bodies.  A result is shared by every
   caller, so readers must not mutate it.  Levelizations are memoized
   so, because lint, dataflow, compile and the reference simulators
   levelize the same value several times over, and so are digests,
   whose canonical traversal and MD5 cost milliseconds on the big
   netlists, enough to dominate a warm compiled-circuit cache lookup.

   The memo is direct-mapped: one entry per slot of [Hashtbl.hash nl],
   replaced by the next netlist that lands there.  An ephemeron hash
   table keeps every entry whose netlist has the same bounded hash (all
   copies of one circuit: rebuilt, fault-injected), and a lookup reads
   the key of each, which marks it live for the current GC cycle; the
   dead copies then never die.  With such a table, checking one
   fault-injected wallace:64 copy per request on the reference
   simulator took a process from 80 to 480 MB.  Here a lookup reads at
   most one key.  64 slots suffice: over the 40 circuits of the
   design-loop benchmark, 703 of 1,648 levelizations hit, and an
   unbounded memo hits 712. *)
let memo f =
  let slots = 64 in
  let table = Array.make slots None and lock = Mutex.create () in
  fun nl ->
    let h = Hashtbl.hash nl in
    let slot = h land (slots - 1) in
    let cached () =
      match table.(slot) with
      | Some (h', e) when h' = h -> Ephemeron.K1.query e nl
      | _ -> None
    in
    match Mutex.protect lock cached with
    | Some v -> v
    | None ->
      let v = f nl in
      Mutex.protect lock (fun () -> table.(slot) <- Some (h, Ephemeron.K1.make nl v));
      v

(* Content digest ------------------------------------------------------- *)

(* A stable content hash: equal for netlists that differ only in
   component numbering or port-list order, different (modulo hash
   collisions) when the observable circuit differs.

   Components are renumbered canonically by an iterative post-order DFS
   over fanin edges, rooted at the output ports in name order and then
   the input ports in name order.  The traversal is determined solely by
   port names, per-component port order, and graph structure — all
   invariant under index permutations such as [Layout.rank_major] and
   under [Serial] round-trips (which may re-sort the port lists by
   component index).  Back edges through feedback loops are skipped
   exactly as in [extract], so the walk terminates on circular fanin.

   Components unreachable from any port (dead logic) contribute only
   per-kind counts: they cannot affect observable behaviour, but their
   presence still distinguishes the netlist.  Labels ([names]) travel
   with their component and are hashed too. *)
let compute_digest t =
  let n = size t in
  let canon = Array.make n (-1) in
  let on_stack = Array.make n false in
  (* an array DFS stack that holds each component at most once, with
     [port.(i)] the next fanin of [i] to follow; [order.(k)] is the
     component numbered [k] *)
  let stack = Array.make n 0 and sp = ref 0 and port = Array.make n 0 in
  let order = Array.make n 0 and next = ref 0 in
  let push c =
    if canon.(c) < 0 && not on_stack.(c) then begin
      on_stack.(c) <- true;
      stack.(!sp) <- c;
      incr sp
    end
  in
  let visit root =
    push root;
    while !sp > 0 do
      let i = stack.(!sp - 1) in
      let fi = t.fanin.(i) in
      if port.(i) < Array.length fi then begin
        port.(i) <- port.(i) + 1;
        push fi.(port.(i) - 1)
      end
      else begin
        on_stack.(i) <- false;
        canon.(i) <- !next;
        order.(!next) <- i;
        incr next;
        decr sp
      end
    done
  in
  let by_name l = List.stable_sort (fun (a, _) (b, _) -> compare a b) l in
  List.iter (fun (_, i) -> visit i) (by_name t.outputs);
  List.iter (fun (_, i) -> visit i) (by_name t.inputs);
  let token = function
    | Dffc b -> if b then "dff1" else "dff0"
    | c -> component_name c
  in
  let buf = Buffer.create (16 * n + 64) in
  (* a non-negative int goes straight into [buf], digit by digit *)
  let rec add_int k =
    if k >= 10 then add_int (k / 10);
    Buffer.add_char buf (Char.chr (48 + (k mod 10)))
  in
  Buffer.add_string buf "hydra-digest 1\n";
  for k = 0 to !next - 1 do
    let i = order.(k) in
    Buffer.add_string buf (token t.components.(i));
    Array.iter
      (fun c ->
        Buffer.add_char buf ' ';
        add_int canon.(c))
      t.fanin.(i);
    List.iter
      (fun nm ->
        Buffer.add_string buf " !";
        Buffer.add_string buf nm)
      t.names.(i);
    Buffer.add_char buf '\n'
  done;
  let line label s k =
    Buffer.add_string buf label;
    Buffer.add_string buf s;
    Buffer.add_char buf ' ';
    add_int k;
    Buffer.add_char buf '\n'
  in
  List.iter (fun (s, i) -> line "input " s canon.(i)) (by_name t.inputs);
  List.iter (fun (s, i) -> line "output " s canon.(i)) (by_name t.outputs);
  let orphans = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      if canon.(i) < 0 then begin
        let tok = token c in
        Hashtbl.replace orphans tok
          (1 + Option.value ~default:0 (Hashtbl.find_opt orphans tok))
      end)
    t.components;
  List.iter
    (fun (tok, count) -> line "orphan " tok count)
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) orphans []));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest = memo compute_digest

(* [of_graph ~outputs] extracts the netlist reachable from [outputs];
   [extract ~inputs ~outputs] additionally declares input ports explicitly,
   so that unused inputs still appear in the port list. *)
let of_graph ~outputs = extract ~inputs:[] ~outputs
