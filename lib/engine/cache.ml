(* Compiled-circuit cache: compile once, serve many.

   Keyed by {!Netlist.digest} × engine flavor × compile flags × k.  The
   digest is a content hash, so two netlists that differ only in
   component numbering or port-list order share a key — but engine
   clients (force sites, poke/peek by index) need the *exact* index
   space they asked for, so a hit additionally verifies structural
   equality against the stored netlist; digest collisions and
   index-permuted twins land in separate entries of the same bucket.  A
   collision therefore costs a duplicate entry, never a wrong program.

   The "slab" flavor caches one pristine exemplar engine per key and
   hands out {!Slab.replicate} copies — fresh power-up value state over
   the shared compiled arrays — so a warm hit skips compilation *and*
   the per-engine rank descriptors and their range checks.  [wide] is
   the k = 1 slab.  The underlying program is cached under its own
   "program" flavor and shared with the slab flavor, so a
   [compile]-then-[wide] sequence compiles once.

   Everything is guarded by one mutex; compilation itself runs outside
   it (two threads racing on the same cold key may both compile — the
   second insert defers to the first, which costs a redundant compile,
   never a wrong entry). *)

module Netlist = Hydra_netlist.Netlist

type key = {
  digest : string;
  flavor : string;
  optimize : bool;
  relayout : bool;
  fuse : bool;
  k : int;
}

type payload = Program of Kernel.program | Slab of Slab.t

type entry = {
  e_netlist : Netlist.t;  (* as presented, pre-pass: the identity *)
  payload : payload;
  mutable stamp : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

type t = {
  capacity : int;
  table : (key, entry list ref) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable count : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable fault_hook : (string -> unit) option;
      (* chaos-injection point, called OUTSIDE the lock at the lookup
         and insert sites; an exception it raises propagates to the
         caller like a build failure would *)
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create 32;
    lock = Mutex.create ();
    clock = 0;
    count = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    fault_hook = None;
  }

let set_fault_hook t hook = t.fault_hook <- hook

let fire_hook t site =
  match t.fault_hook with None -> () | Some h -> h site

let stats t =
  Mutex.lock t.lock;
  let s =
    { hits = t.hits; misses = t.misses; evictions = t.evictions;
      entries = t.count }
  in
  Mutex.unlock t.lock;
  s

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.count <- 0;
  Mutex.unlock t.lock

let find_locked t key nl =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some l ->
    (* the physical test first: a client re-presenting the very netlist
       it compiled skips the structural walk over the whole circuit *)
    List.find_opt (fun e -> e.e_netlist == nl || e.e_netlist = nl) !l

(* The one entry-removal critical section (lock held): unlink, count
   down and count the eviction as a single indivisible unit, so the
   [entries]/[evictions] counters can never diverge from the table —
   previously the decrement and the eviction increment sat on separate
   paths (with a "reset count to 0" fallback), and a replica-on-hit
   racing an LRU sweep could under-count evictions. *)
let remove_entry t key e =
  let l = Hashtbl.find t.table key in
  l := List.filter (fun e' -> e' != e) !l;
  if !l = [] then Hashtbl.remove t.table key;
  t.count <- t.count - 1;
  t.evictions <- t.evictions + 1

(* Evict the least-recently-stamped entry; false iff the table is empty
   (never silently zero the count — an inconsistency would be a bug to
   surface, not paper over). *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key l ->
      List.iter
        (fun e ->
          match !victim with
          | Some (_, _, s) when s <= e.stamp -> ()
          | _ -> victim := Some (key, e, e.stamp))
        !l)
    t.table;
  match !victim with
  | None -> false
  | Some (key, e, _) ->
    remove_entry t key e;
    true

let insert_locked t key nl payload =
  match find_locked t key nl with
  | Some e -> e  (* a racing thread compiled it first; keep theirs *)
  | None ->
    let e = { e_netlist = nl; payload; stamp = t.clock } in
    t.clock <- t.clock + 1;
    (match Hashtbl.find_opt t.table key with
    | Some l -> l := e :: !l
    | None -> Hashtbl.replace t.table key (ref [ e ]));
    t.count <- t.count + 1;
    while t.count > t.capacity && evict_lru t do
      ()
    done;
    e

let get t key nl build =
  fire_hook t "lookup";
  Mutex.lock t.lock;
  match find_locked t key nl with
  | Some e ->
    t.hits <- t.hits + 1;
    e.stamp <- t.clock;
    t.clock <- t.clock + 1;
    let p = e.payload in
    Mutex.unlock t.lock;
    p
  | None ->
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock;
    let payload = build () in
    fire_hook t "insert";
    Mutex.lock t.lock;
    let e = insert_locked t key nl payload in
    let p = e.payload in
    Mutex.unlock t.lock;
    p

let mk_key ~flavor ~optimize ~relayout ~fuse ~k nl =
  { digest = Netlist.digest nl; flavor; optimize; relayout; fuse; k }

let compile t ?(relayout = true) ?(fuse = true) ?(k = 1) nl =
  let key = mk_key ~flavor:"program" ~optimize:false ~relayout ~fuse ~k nl in
  match get t key nl (fun () -> Program (Kernel.compile ~relayout ~fuse ~k nl)) with
  | Program p -> p
  | Slab _ -> assert false

(* [?gating] is accepted and ignored, like {!Slab.create}'s.  An
   optimized slab's program is cached under the optimized netlist. *)
let slab t ?(k = 8) ?gating:_ ?(optimize = false) ?(relayout = true)
    ?(fuse = true) nl =
  if k < 1 then invalid_arg "Cache.slab: k must be >= 1";
  let key = mk_key ~flavor:"slab" ~optimize ~relayout ~fuse ~k nl in
  match
    get t key nl (fun () ->
        let nl = if optimize then Hydra_netlist.Optimize.optimize nl else nl in
        Slab (Slab.of_program (compile t ~relayout ~fuse ~k nl)))
  with
  | Slab s -> Slab.replicate s
  | Program _ -> assert false

let wide t nl = slab t ~k:1 nl

(* One process-wide cache for clients without their own plumbing
   (Fault.generate_tests, the CLI).  Created at module init, so no
   domain-unsafe lazy initialization. *)
let shared_cache = create ()
let shared () = shared_cache
