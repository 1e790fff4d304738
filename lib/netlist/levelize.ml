(* Levelization: assign each component the number of gate delays after the
   start of a clock cycle at which its output is valid.

   Inports, constants and dff outputs are level 0; a combinational gate is
   one more than its deepest driver; an outport takes its driver's level.
   A dff's input edge does not constrain the dff (the synchronous model
   breaks cycles at flip flops, paper section 3), so this is a Kahn
   topological sort over combinational edges only.  Components left
   unleveled form combinational cycles, which the synchronous model
   forbids — they are reported rather than silently accepted.

   Every [t] is built by [of_levels] from a level array, so ranks and the
   critical path have one definition: a rank lists its members in
   ascending index order, whichever algorithm found the levels. *)

type t = {
  levels : int array;            (* per component; -1 inside a cycle *)
  by_level : int array array;    (* combinational components per level *)
  critical_path : int;
  cyclic : int list;             (* components on combinational cycles *)
}

exception Combinational_cycle of int list

let is_source : Netlist.component -> bool = function
  | Netlist.Inport _ | Netlist.Constant _ | Netlist.Dffc _ -> true
  | Netlist.Outport _ | Netlist.Invc | Netlist.And2c | Netlist.Or2c
  | Netlist.Xor2c -> false

(* Ranks by counting sort over the leveled non-sources in index order;
   the critical path is the deepest signal that must settle before the
   next tick, at an output port or at a dff input. *)
let of_levels (nl : Netlist.t) levels ~cyclic =
  let n = Array.length levels in
  let comps = nl.Netlist.components in
  let ranked i = levels.(i) >= 0 && not (is_source comps.(i)) in
  let fill = Array.make (Array.fold_left max 0 levels + 1) 0 in
  for i = 0 to n - 1 do
    if ranked i then fill.(levels.(i)) <- fill.(levels.(i)) + 1
  done;
  let by_level = Array.map (fun c -> Array.make c 0) fill in
  Array.fill fill 0 (Array.length fill) 0;
  let critical = ref 0 in
  for i = 0 to n - 1 do
    if ranked i then begin
      let l = levels.(i) in
      by_level.(l).(fill.(l)) <- i;
      fill.(l) <- fill.(l) + 1
    end;
    match comps.(i) with
    | Netlist.Outport _ | Netlist.Dffc _ ->
      Array.iter
        (fun drv -> if levels.(drv) > !critical then critical := levels.(drv))
        nl.Netlist.fanin.(i)
    | _ -> ()
  done;
  { levels; by_level; critical_path = !critical; cyclic }

(* Kahn's algorithm on flat arrays: the CSR fanout and an int-array FIFO
   (every component enters it at most once, so [n] slots suffice). *)
let compute (nl : Netlist.t) =
  let n = Netlist.size nl in
  let comps = nl.Netlist.components in
  let levels = Array.make n (-1) in
  let remaining = Array.make n 0 in
  let { Netlist.off; sink; _ } = Netlist.fanout nl in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    if is_source comps.(i) then begin
      levels.(i) <- 0;
      queue.(!tail) <- i;
      incr tail
    end
    else remaining.(i) <- Array.length nl.Netlist.fanin.(i)
  done;
  (* Every non-source occupies its own rank, one past its deepest driver —
     including outports, so that per-level parallel execution never
     schedules a port in the same rank as its driver.  (This does not
     affect the critical path, which is computed from the *drivers* of
     outports and dffs.)  Edges into a dff do not constrain the dff's
     level. *)
  let head = ref 0 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    let lvl = levels.(i) + 1 in
    for e = off.(i) to off.(i + 1) - 1 do
      let s = sink.(e) in
      match comps.(s) with
      | Netlist.Dffc _ -> ()
      | _ ->
        let r = remaining.(s) - 1 in
        remaining.(s) <- r;
        if lvl > levels.(s) then levels.(s) <- lvl;
        if r = 0 then begin
          queue.(!tail) <- s;
          incr tail
        end
    done
  done;
  (* Unleveled = never fully scheduled (a cycle member, or downstream of
     one).  Cannot be read off [levels] alone: the eager max-update above
     gives a cycle member with one acyclic driver a tentative level even
     though it never entered the queue — reset those to -1.  Ascending,
     so cycle reports are stable across runs and engines. *)
  let cyclic = ref [] in
  for i = n - 1 downto 0 do
    if (not (is_source comps.(i))) && remaining.(i) > 0 then begin
      levels.(i) <- -1;
      cyclic := i :: !cyclic
    end
  done;
  of_levels nl levels ~cyclic:!cyclic

(* An ordered witness for the cycle report: walk driver edges inside the
   unleveled set (every unleveled component has at least one unleveled
   driver, or it would have been leveled) until a component repeats; the
   slice between the two visits is a concrete directed combinational
   cycle.  Choosing the smallest unleveled index at every step makes the
   witness deterministic; the result is rotated to start at its smallest
   member and listed in driver -> sink order, so each element drives the
   next and the last drives the first. *)
let cycle_witness (nl : Netlist.t) t =
  match t.cyclic with
  | [] -> None
  | start :: _ ->
    let pos : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let path = ref [] in
    let rec walk i k =
      match Hashtbl.find_opt pos i with
      | Some p ->
        List.filter (fun j -> Hashtbl.find pos j >= p) (List.rev !path)
      | None ->
        Hashtbl.add pos i k;
        path := i :: !path;
        let next = ref (-1) in
        Array.iter
          (fun d ->
            if t.levels.(d) < 0 && (!next = -1 || d < !next) then next := d)
          nl.Netlist.fanin.(i);
        assert (!next >= 0);
        walk !next (k + 1)
    in
    (* the walk follows fanin (sink -> driver); reverse for driver -> sink *)
    let cyc = List.rev (walk start 0) in
    (* rotate to start at the smallest member *)
    let m = List.fold_left min max_int cyc in
    let rec rotate = function
      | x :: rest when x <> m -> rotate (rest @ [ x ])
      | l -> l
    in
    Some (rotate cyc)

let describe_cycle (nl : Netlist.t) cyc =
  match cyc with
  | [] -> "(no cycle)"
  | first :: _ ->
    String.concat " -> "
      (List.map (Netlist.describe nl) cyc @ [ Netlist.describe nl first ])

let of_netlist = Netlist.memo compute

let check nl =
  let t = of_netlist nl in
  if t.cyclic <> [] then raise (Combinational_cycle t.cyclic);
  t

let critical_path nl = (of_netlist nl).critical_path

(* Re-levelize after a small edit: recompute levels only along paths
   reachable from the edited sites, by chaotic iteration to the unique
   fixpoint (the level equations on an acyclic graph have exactly one
   solution).  If levels refuse to settle — the edit plausibly closed a
   combinational cycle — defer to [check], which either raises the
   proper [Combinational_cycle] or supplies exact levels.  The fanout is
   built only once a level moves: an edit that keeps every edited site's
   fanin moves none. *)
let relevel (nl : Netlist.t) old ~seeds =
  let n = Netlist.size nl in
  let comps = nl.Netlist.components in
  let levels = Array.copy old.levels in
  let fanout = lazy (Netlist.fanout nl) in
  let level_of i =
    1 + Array.fold_left (fun a d -> max a levels.(d)) (-1) nl.Netlist.fanin.(i)
  in
  let changed = Array.make n false in
  let q = Queue.create () in
  let inq = Array.make n false in
  let updates = ref 0 in
  let budget = (4 * n) + 16 in
  let push i =
    if not (inq.(i) || is_source comps.(i)) then begin
      inq.(i) <- true;
      Queue.add i q
    end
  in
  List.iter push seeds;
  match
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      inq.(i) <- false;
      let l = level_of i in
      if l <> levels.(i) then begin
        incr updates;
        if !updates > budget then raise Exit;
        levels.(i) <- l;
        changed.(i) <- true;
        let { Netlist.off; sink; _ } = Lazy.force fanout in
        for e = off.(i) to off.(i + 1) - 1 do
          match comps.(sink.(e)) with
          | Netlist.Dffc _ -> ()
          | _ -> push sink.(e)
        done
      end
    done
  with
  | () -> (of_levels nl levels ~cyclic:[], changed)
  | exception Exit ->
    let full = check nl in
    Array.iteri
      (fun i l -> if levels.(i) <> l then changed.(i) <- true)
      full.levels;
    (full, changed)
