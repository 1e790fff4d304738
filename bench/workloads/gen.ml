(* Seeded input generators.  Every generator draws from its own
   [Random.State] keyed by (generator tag, seed, request index), so the
   same seed always yields the same inputs, and inputs of one request do
   not depend on how many other requests were generated first.

   The generators hold the cost of a request nearly constant across
   seeds — fixed instruction classes, a fixed multiset of loop bounds, a
   fixed design-loop schedule — so seed-to-seed spread in a run's
   throughput is host noise, not a different amount of work. *)

module Isa = Hydra_cpu.Isa

let rng tag seed i = Random.State.make [| tag; seed; i |]

(* Digest of any generated value: the same inputs hash the same. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* ---- machine-language programs (64-word memory, data at 48..63) ---- *)

let data_base = 48

(* Straight-line code with a fixed sequence of instruction classes and
   seeded operands: 4 ldval, 9 register ops, 2 stores, 1 load, halt — 24
   words, and the same cycle count for every seed. *)
let straight_line st =
  let reg () = 1 + Random.State.int st 15 in
  let ops = [| Isa.Add; Sub; Inc; Land; Lor; Lxor; Cmplt; Cmpeq; Cmpgt |] in
  let ldvals = List.init 4 (fun i -> Isa.Rx (Isa.Ldval, i + 1, 0, Random.State.int st 0x10000)) in
  let alu =
    List.init 9 (fun _ ->
        let op = ops.(Random.State.int st (Array.length ops)) in
        let d = reg () in
        let a = reg () in
        Isa.Rrr (op, d, a, reg ()))
  in
  let stores = List.init 2 (fun j -> Isa.Rx (Isa.Store, reg (), 0, data_base + j)) in
  let load = Isa.Rx (Isa.Load, reg (), 0, data_base + Random.State.int st 2) in
  Isa.encode_program (ldvals @ alu @ stores @ [ load; Isa.Rrr (Isa.Halt, 0, 0, 0) ])

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

let sum_loop =
  let program = Hydra_cpu.Asm.assemble sum_loop_src in
  let n_addr = List.length program - 2 in
  fun n -> List.mapi (fun i w -> if i = n_addr then n else w) program

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let max_loop_n = 31

(* [n] programs, even slots straight-line and odd slots [sum 1..n]
   loops whose bounds are a seeded permutation of a fixed multiset
   (1..max_loop_n, repeated), so every request retires the same number
   of instructions. *)
let program_batch ~seed ~req n =
  let st = rng 0xc9 seed req in
  let loops = n / 2 in
  let bounds = shuffle st (Array.init loops (fun j -> 1 + (j mod max_loop_n))) in
  Array.init n (fun k ->
      if k mod 2 = 1 then sum_loop bounds.(k / 2) else straight_line st)

(* ---- SEU campaign: one program, two injection cycles ---- *)

(* A straight-line program and two injection cycles, one in each half
   of its execution window [len, len + run_cycles). *)
let seu_request ~seed ~req ~run_cycles =
  let st = rng 0x5e seed req in
  let program = straight_line st in
  let len = List.length program in
  let half = max 1 (run_cycles / 2) in
  let c1 = len + Random.State.int st half in
  let c2 = len + half + Random.State.int st (max 1 (run_cycles - half)) in
  (program, c1, c2)

(* ---- stuck-at campaign stimulus ---- *)

let stimulus_seed ~seed ~req = (seed * 1_000_003) + req

(* ---- wide/slab lane words ---- *)

let random_words st n = Array.init n (fun _ -> Hydra_core.Packed.random_word st)

(* ---- design loop ---- *)

type kind = Verify_opt | Edit | Reopen | Lint

let kind_name = function
  | Verify_opt -> "verify-opt"
  | Edit -> "edit"
  | Reopen -> "reopen"
  | Lint -> "lint"

(* Each circuit's session: a fixed sequence of requests.  Over the whole
   catalogue the mix is 40% verify-opt, 25% edit, 20% reopen and 15%
   lint.  Sessions that reopen do it twice, so the first reopen misses
   the cache and the second hits it, whatever the seed; circuits above
   cpu:6 are never linted. *)
let session_a = [ Reopen; Verify_opt; Edit; Reopen; Verify_opt ]
let session_b = [ Verify_opt; Lint; Edit; Lint; Verify_opt ]
let session_c = [ Verify_opt; Edit; Lint; Edit; Verify_opt ]

let catalogue =
  let a = session_a and b = session_b and c = session_c in
  [
    ("ripple:8", a); ("ripple:16", b); ("ripple:32", a); ("ripple:64", c);
    ("ripple:128", a); ("cla-sklansky:8", b); ("cla-sklansky:16", a);
    ("cla-sklansky:32", c); ("cla-sklansky:64", a); ("cla-brent-kung:8", b);
    ("cla-brent-kung:16", a); ("cla-brent-kung:32", c); ("cla-brent-kung:64", a);
    ("cla-kogge-stone:8", b); ("cla-kogge-stone:16", a); ("cla-kogge-stone:32", c);
    ("cla-kogge-stone:64", a); ("cla-kogge-stone:128", b); ("alu:4", a); ("alu:8", c);
    ("alu:16", a); ("alu:32", b); ("alu:64", a); ("sorter:4x4", c); ("sorter:4x8", a);
    ("sorter:8x4", b); ("sorter:8x8", a); ("sorter:16x4", c); ("wallace:8", a);
    ("wallace:12", b); ("wallace:16", a); ("wallace:24", c); ("wallace:32", a);
    ("wallace:48", b); ("wallace:64", a); ("cpu:4", c); ("cpu:5", b); ("cpu:6", c);
    ("cpu:7", a); ("cpu:8", a);
  ]

let round_length = List.fold_left (fun n (_, s) -> n + List.length s) 0 catalogue

type step = { circuit : string; kind : kind; step_seed : int }

(* Sessions open in a shuffled order, four at a time; within each group
   of four the sessions' requests interleave in a random merge that keeps
   each session's own order.  A group inserts far fewer entries than a
   default 64-entry cache holds, so a session's second access to its
   circuit hits, and entries of earlier groups are evicted as groups
   pass.  [round] numbers successive passes over the catalogue.

   The schedule depends on [round] alone; [seed] picks each request's
   inputs.  Which large circuits share the cache at once sets the run's
   peak memory, which moved by 15% between seeds when the seed also
   shuffled the schedule. *)
let design_round ~seed ~round =
  let st = rng 0xd1 0 round in
  let inputs = rng 0xd2 seed round in
  let sessions = shuffle st (Array.of_list catalogue) in
  let group = 4 in
  let steps = ref [] in
  let g = ref 0 in
  while !g < Array.length sessions do
    let members = Array.sub sessions !g (min group (Array.length sessions - !g)) in
    let queues = Array.map (fun (c, s) -> ref (List.map (fun k -> (c, k)) s)) members in
    let remaining () = Array.fold_left (fun n q -> n + List.length !q) 0 queues in
    while remaining () > 0 do
      (* pick a session with probability proportional to its remaining
         requests: a uniform random merge *)
      let r = ref (Random.State.int st (remaining ())) in
      let q = ref 0 in
      while !r >= List.length !(queues.(!q)) do
        r := !r - List.length !(queues.(!q));
        incr q
      done;
      match !(queues.(!q)) with
      | (circuit, kind) :: rest ->
        queues.(!q) := rest;
        steps := { circuit; kind; step_seed = Random.State.bits inputs } :: !steps
      | [] -> assert false
    done;
    g := !g + group
  done;
  List.rev !steps

(* A single-gate edit of [nl]: one seeded two-input gate changes kind
   (and/or/xor), keeping its fanin, so the edited netlist shares [nl]'s
   index space as {!Hydra_engine.Kernel.patch} requires. *)
let gate_edit st (nl : Hydra_netlist.Netlist.t) =
  let module N = Hydra_netlist.Netlist in
  let gates = ref [] in
  Array.iteri
    (fun i c -> match c with N.And2c | N.Or2c | N.Xor2c -> gates := i :: !gates | _ -> ())
    nl.N.components;
  let gates = Array.of_list !gates in
  if gates = [||] then invalid_arg "Gen.gate_edit: no two-input gate";
  let site = gates.(Random.State.int st (Array.length gates)) in
  let others =
    List.filter (fun k -> k <> nl.N.components.(site)) [ N.And2c; N.Or2c; N.Xor2c ]
  in
  let components = Array.copy nl.N.components in
  components.(site) <- List.nth others (Random.State.int st 2);
  ({ nl with N.components }, site)
