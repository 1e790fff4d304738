(* Tests for the scheduler's fan-out call, the compiled-circuit
   cache, the netlist content digest and incremental recompilation
   (Kernel.patch) — plus the soak check that every client rewired onto
   the scheduler stays bit-identical to its sequential baseline. *)

open Util
module G = Hydra_core.Graph
module N = Hydra_netlist.Netlist
module Serial = Hydra_netlist.Serial
module Layout = Hydra_netlist.Layout
module Kernel = Hydra_engine.Kernel
module Wide = Hydra_engine.Compiled_wide
module Scheduler = Hydra_engine.Scheduler
module Cache = Hydra_engine.Cache
module Sharded = Hydra_engine.Sharded
module Testbench = Hydra_engine.Testbench
module Campaign = Hydra_verify.Campaign
module Equiv = Hydra_verify.Equiv
module Certify = Hydra_analyze.Certify

(* Small fixture netlists ---------------------------------------------- *)

let ripple_netlist n =
  let module A = Hydra_circuits.Arith.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let cout, sums = A.ripple_add G.zero (List.combine xs ys) in
  N.extract ~inputs:(xs @ ys)
    ~outputs:
      (("cout", cout) :: List.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) sums)

let wallace_netlist n =
  let module W = Hydra_circuits.Wallace.Make (G) in
  let xs = List.init n (fun i -> G.input (Printf.sprintf "x%d" i)) in
  let ys = List.init n (fun i -> G.input (Printf.sprintf "y%d" i)) in
  let prod = W.multw xs ys in
  let regd = List.map G.dff prod in
  N.of_graph ~outputs:(List.mapi (fun i s -> (Printf.sprintf "p%d" i, s)) regd)

(* Flip one mid-netlist And2c to Or2c (same fanin): the canonical
   single-gate edit.  Returns the edited netlist and the site. *)
let flip_one_gate nl =
  let n = N.size nl in
  let site = ref (-1) in
  (* pick the middle And2c so the edit sits deep in the circuit *)
  let ands = ref [] in
  Array.iteri
    (fun i c -> if c = N.And2c then ands := i :: !ands)
    nl.N.components;
  let ands = Array.of_list (List.rev !ands) in
  if Array.length ands = 0 then Alcotest.fail "fixture has no And2c";
  site := ands.(Array.length ands / 2);
  let components = Array.copy nl.N.components in
  components.(!site) <- N.Or2c;
  ({ nl with N.components }, !site, n)

(* Scheduler ----------------------------------------------------------- *)

let scheduler_tests =
  [
    tc "exception fails its job, siblings and pool survive" (fun () ->
        let sch = Scheduler.create ~domains:2 () in
        (match
           Scheduler.run_tasks sch ~name:"bad" 3 (fun ~member:_ i ->
               if i = 1 then failwith "boom")
         with
        | () -> Alcotest.fail "run_tasks swallowed the failure"
        | exception Failure m -> check_string "payload" "boom" m);
        let sibling_hits = Atomic.make 0 in
        Scheduler.run_tasks sch ~name:"sibling" 20 (fun ~member:_ _ ->
            Atomic.incr sibling_hits);
        check_int "sibling ran fully" 20 (Atomic.get sibling_hits);
        (match Scheduler.run_tasks sch 1 (fun ~member:_ _ -> failwith "again") with
        | () -> Alcotest.fail "run_tasks swallowed the failure"
        | exception Failure m -> check_string "re-raised" "again" m);
        Scheduler.shutdown sch);
    qc ~count:30 "every task of every job runs exactly once"
      QCheck2.Gen.(
        pair (int_range 1 4) (list_size (int_range 1 8) (int_range 0 9)))
      (fun (domains, specs) ->
        let sch = Scheduler.create ~domains () in
        let nmembers = Scheduler.domains sch in
        let ok =
          List.for_all
            (fun tasks ->
              let hits = Array.init (max tasks 1) (fun _ -> Atomic.make 0) in
              let bad = Atomic.make false in
              Scheduler.run_tasks sch tasks (fun ~member i ->
                  if member < 0 || member >= nmembers then Atomic.set bad true;
                  Atomic.incr hits.(i));
              (not (Atomic.get bad))
              && Array.for_all
                   (fun h -> Atomic.get h = 1)
                   (Array.sub hits 0 tasks))
            specs
        in
        Scheduler.shutdown sch;
        ok);
    qc ~count:200 "chunking partitions [0, total)"
      QCheck2.Gen.(
        triple (int_range 0 500) (int_range 1 130) (int_range 0 4))
      (fun (total, lanes, reserved) ->
        if reserved >= lanes then
          match Scheduler.chunking ~reserved ~lanes total with
          | exception Invalid_argument _ -> true
          | _ -> false
        else begin
          let ch = Scheduler.chunking ~reserved ~lanes total in
          let covered = Array.make (max total 1) 0 in
          for c = 0 to ch.Scheduler.count - 1 do
            let lo, hi = ch.Scheduler.bounds c in
            if hi - lo > ch.Scheduler.per_chunk || lo >= hi then
              Alcotest.fail "bad chunk bounds";
            for i = lo to hi - 1 do
              covered.(i) <- covered.(i) + 1
            done
          done;
          ch.Scheduler.per_chunk = lanes - reserved
          && (total = 0 || Array.for_all (fun c -> c = 1) covered)
          && (total > 0 || ch.Scheduler.count = 0)
        end);
  ]

(* Digest -------------------------------------------------------------- *)

let digest_tests =
  [
    tc "digest is stable across Serial round-trips" (fun () ->
        List.iter
          (fun nl ->
            let d = N.digest nl in
            let rt = Serial.of_string (Serial.to_string nl) in
            check_string "round-trip digest" d (N.digest rt);
            let rt2 = Serial.of_string (Serial.to_string rt) in
            check_string "twice round-tripped" d (N.digest rt2))
          [ ripple_netlist 6; wallace_netlist 8 ]);
    tc "digest is insensitive to rank-major renumbering" (fun () ->
        List.iter
          (fun nl ->
            let rm = Layout.rank_major nl in
            check_bool "renumbering really happened" true (rm <> nl);
            check_string "rank-major digest" (N.digest nl) (N.digest rm);
            (* and the round-trip of the renumbered netlist too *)
            check_string "rank-major round-trip" (N.digest nl)
              (N.digest (Serial.of_string (Serial.to_string rm))))
          [ ripple_netlist 6; wallace_netlist 8 ]);
    tc "distinct circuits get distinct digests" (fun () ->
        let a = G.input "a" and b = G.input "b" in
        let d1 = N.digest (N.of_graph ~outputs:[ ("y", G.and2 a b) ]) in
        let d2 = N.digest (N.of_graph ~outputs:[ ("y", G.or2 a b) ]) in
        let d3 = N.digest (N.of_graph ~outputs:[ ("z", G.and2 a b) ]) in
        check_bool "and <> or" true (d1 <> d2);
        check_bool "output name matters" true (d1 <> d3);
        check_bool "ripple <> wallace" true
          (N.digest (ripple_netlist 4) <> N.digest (wallace_netlist 4)));
  ]

(* Cache --------------------------------------------------------------- *)

let cache_tests =
  [
    tc "hit/miss/eviction counters and warm replicas" (fun () ->
        let cache = Cache.create ~capacity:4 () in
        let nl = ripple_netlist 4 in
        (* cold wide build = program miss + wide miss *)
        let w1 = Cache.wide cache nl in
        let s = Cache.stats cache in
        check_int "cold misses" 2 s.Cache.misses;
        check_int "cold hits" 0 s.Cache.hits;
        check_int "entries" 2 s.Cache.entries;
        (* warm build = one wide hit, no compilation *)
        let w2 = Cache.wide cache nl in
        let s = Cache.stats cache in
        check_int "warm misses" 2 s.Cache.misses;
        check_int "warm hits" 1 s.Cache.hits;
        (* a program request under the same flags also hits *)
        let _p = Cache.compile cache nl in
        check_int "program hit" 2 (Cache.stats cache).Cache.hits;
        (* replicas are behaviorally the fresh engine *)
        let fresh = Wide.create nl in
        let inputs =
          List.map
            (fun (name, _) -> (name, [ 0x2a; 0x15; 0x3f ]))
            nl.N.inputs
        in
        let expect = Hydra_engine.Slab.run_packed fresh ~inputs ~cycles:3 in
        check_bool "replica 1 identical" true
          (Hydra_engine.Slab.run_packed w1 ~inputs ~cycles:3 = expect);
        check_bool "replica 2 identical" true
          (Hydra_engine.Slab.run_packed w2 ~inputs ~cycles:3 = expect));
    tc "distinct flags and flavors get distinct entries" (fun () ->
        let cache = Cache.create () in
        let nl = ripple_netlist 4 in
        let _ = Cache.compile cache nl in
        let _ = Cache.compile cache ~fuse:false nl in
        let _ = Cache.compile cache ~k:4 nl in
        let _ = Cache.slab cache ~k:4 nl in
        let s = Cache.stats cache in
        (* program(fuse), program(nofuse), program(k=4), slab(k=4): the
           slab reuses the k=4 program (hit) and adds its own entry *)
        check_int "entries" 4 s.Cache.entries;
        check_int "slab program reuse" 1 s.Cache.hits);
    tc "optimize is part of the slab key: neither order is served the other"
      (fun () ->
        let cache = Cache.create () in
        let nl = ripple_netlist 4 in
        let opt = Cache.slab cache ~k:2 ~optimize:true nl in
        let plain = Cache.slab cache ~k:2 nl in
        let s = Cache.stats cache in
        (* slab + program misses per request *)
        check_int "plain after optimized misses" 4 s.Cache.misses;
        check_int "no hit" 0 s.Cache.hits;
        check_bool "the optimized engine is smaller" true
          (N.size (Hydra_engine.Slab.netlist opt)
          < N.size (Hydra_engine.Slab.netlist plain));
        (* each flag value then hits its own entry *)
        let _ = Cache.slab cache ~k:2 ~optimize:true nl in
        let _ = Cache.slab cache ~k:2 nl in
        check_int "same flags hit" 2 (Cache.stats cache).Cache.hits);
    tc "LRU eviction evicts the stalest entry" (fun () ->
        let cache = Cache.create ~capacity:2 () in
        let a = ripple_netlist 3 and b = ripple_netlist 4 and c = ripple_netlist 5 in
        let _ = Cache.compile cache a in
        let _ = Cache.compile cache b in
        let _ = Cache.compile cache a in  (* refresh a: b is now LRU *)
        let _ = Cache.compile cache c in  (* evicts b *)
        let s = Cache.stats cache in
        check_int "evictions" 1 s.Cache.evictions;
        check_int "entries at capacity" 2 s.Cache.entries;
        let _ = Cache.compile cache a in
        check_int "a survived (hit)" 2 (Cache.stats cache).Cache.hits;
        let _ = Cache.compile cache b in
        check_int "b was evicted (miss)" 4 (Cache.stats cache).Cache.misses);
    tc "index-permuted twin shares a digest but not an entry" (fun () ->
        let cache = Cache.create () in
        let nl = ripple_netlist 5 in
        let rm = Layout.rank_major nl in
        check_string "same digest" (N.digest nl) (N.digest rm);
        let p1 = Cache.compile cache nl in
        let p2 = Cache.compile cache rm in
        let s = Cache.stats cache in
        check_int "two entries" 2 s.Cache.entries;
        check_int "no false hit" 2 s.Cache.misses;
        (* structurally different presentations got distinct programs *)
        check_bool "distinct programs" true (p1 != p2));
  ]

(* Kernel.patch -------------------------------------------------------- *)

let patch_tests =
  [
    tc "single-gate edit of wallace:64 recompiles <10%, certified" (fun () ->
        let nl = wallace_netlist 64 in
        let prog = Kernel.compile nl in
        (* edits are expressed against the program's (post-relayout)
           netlist index space *)
        let nl', site, _ = flip_one_gate prog.Kernel.netlist in
        let prog', st = Kernel.patch prog nl' ~edited:[ site ] in
        check_int "one edit" 1 st.Kernel.p_edited;
        check_bool
          (Printf.sprintf "recompiled %d of %d components"
             st.Kernel.p_comps_recompiled st.Kernel.p_comps_total)
          true
          (st.Kernel.p_comps_recompiled * 10 < st.Kernel.p_comps_total);
        check_bool "patched netlist installed" true (prog'.Kernel.netlist = nl');
        (* translation-validate the patched program against a fresh full
           compile of the edited netlist *)
        Certify.ensure (Equiv.certify_patch prog'));
    tc "patch = full recompile behavior on small edits" (fun () ->
        let nl = ripple_netlist 8 in
        List.iter
          (fun fuse ->
            let prog = Kernel.compile ~fuse nl in
            let nl', site, _ = flip_one_gate prog.Kernel.netlist in
            let prog', _ = Kernel.patch prog nl' ~edited:[ site ] in
            Certify.ensure (Equiv.certify_patch prog'))
          [ true; false ]);
    tc "patch re-levels the sinks of a site an edit deepens" (fun () ->
        (* x = a & b feeds y = inv x and z = y & a; the edit rewires x to
           read w, three inverters deep, which moves x, y and z down *)
        let a = G.input "a" and b = G.input "b" and c = G.input "c" in
        let w = G.inv (G.inv (G.inv c)) in
        let x = G.label "x" (G.and2 a b) in
        let nl = N.of_graph ~outputs:[ ("z", G.and2 (G.inv x) a); ("w", w) ] in
        let index s = snd (List.find (fun (name, _) -> name = s) nl.N.outputs) in
        let site = ref (-1) in
        Array.iteri (fun i nms -> if nms = [ "x" ] then site := i) nl.N.names;
        let prog = Kernel.compile ~relayout:false ~fuse:false nl in
        let fanin = Array.copy nl.N.fanin in
        fanin.(!site) <- [| nl.N.fanin.(!site).(0); nl.N.fanin.(index "w").(0) |];
        let nl' = { nl with N.fanin } in
        let prog', _ = Kernel.patch prog nl' ~edited:[ !site ] in
        let full = Hydra_netlist.Levelize.compute nl' in
        check_int "x moved below w" 4 full.Hydra_netlist.Levelize.levels.(!site);
        check_bool "levels = full levelization" true
          (prog'.Kernel.levels.Hydra_netlist.Levelize.levels = full.Hydra_netlist.Levelize.levels);
        Certify.ensure (Equiv.certify_patch prog'));
    tc "patch rejects undeclared edits and non-gate sites" (fun () ->
        let nl = ripple_netlist 4 in
        let prog = Kernel.compile nl in
        let nl', site, _ = flip_one_gate prog.Kernel.netlist in
        (* the edit exists but is not declared *)
        (match Kernel.patch prog nl' ~edited:[] with
        | _ -> Alcotest.fail "undeclared edit accepted"
        | exception Invalid_argument _ -> ());
        (* declaring a port site is rejected *)
        let inport =
          let r = ref (-1) in
          Array.iteri
            (fun i c -> match c with N.Inport _ when !r < 0 -> r := i | _ -> ())
            prog.Kernel.netlist.N.components;
          !r
        in
        (match Kernel.patch prog nl' ~edited:[ site; inport ] with
        | _ -> Alcotest.fail "port edit accepted"
        | exception Invalid_argument _ -> ()));
  ]

(* Soak: rewired clients vs their sequential baselines ------------------ *)

let soak_tests =
  [
    tc "mixed campaign/equiv/testbench on one team, bit-identical" (fun () ->
        let nl = ripple_netlist 6 in
        let cache = Cache.create () in
        let sch = Scheduler.create ~domains:2 () in
        (* campaign: all stuck-at faults, random stimulus *)
        let faults = Campaign.all_stuck_at nl in
        let stimulus = Campaign.random_stimulus ~seed:7 ~cycles:12 nl in
        let seq_report = Campaign.run nl ~faults ~stimulus ~cycles:12 in
        let sched_report =
          Campaign.run ~scheduler:sch ~cache nl ~faults ~stimulus ~cycles:12
        in
        check_bool "campaign verdicts identical" true
          (seq_report.Campaign.verdicts = sched_report.Campaign.verdicts);
        (* equivalence: netlist vs its rank-major re-layout *)
        let rm = Layout.rank_major nl in
        let seq_eq = Equiv.wide_random_netlists ~passes:6 nl rm in
        let sched_eq =
          Equiv.wide_random_netlists ~scheduler:sch ~cache ~passes:6 nl rm
        in
        check_bool "equiv verdict identical" true (seq_eq = sched_eq);
        check_bool "equivalent" true (Equiv.seq_equivalent sched_eq);
        (* testbench: 150 random cases chunk over 3 passes *)
        let in_names = List.map fst nl.N.inputs in
        let cases =
          (* stimulus is materialized up front: the two runs must see
             identical streams, not a shared RNG drained in run order *)
          Array.init 150 (fun k ->
              let st = Random.State.make [| 0x7ab; k |] in
              ( List.map
                  (fun name ->
                    Testbench.Bit_values
                      (name, List.init 4 (fun _ -> Random.State.bool st)))
                  in_names,
                [] ))
        in
        let seq_tb = Testbench.run_batched ~cycles:4 ~cases nl in
        let sched_tb =
          Testbench.run_batched ~scheduler:sch ~cycles:4 ~cases nl
        in
        check_bool "testbench reports identical" true (seq_tb = sched_tb);
        (* the cache served every engine of the two scheduler runs *)
        check_bool "cache was exercised" true
          ((Cache.stats cache).Cache.misses > 0);
        Scheduler.shutdown sch);
    tc "many small jobs: one run_tasks call each" (fun () ->
        let sch = Scheduler.create ~domains:3 () in
        let total = Atomic.make 0 in
        for k = 0 to 39 do
          Scheduler.run_tasks sch ~name:(Printf.sprintf "j%d" k)
            (1 + (k mod 5))
            (fun ~member:_ _ -> Atomic.incr total)
        done;
        let expect = List.init 40 (fun k -> 1 + (k mod 5)) in
        check_int "every task ran" (List.fold_left ( + ) 0 expect)
          (Atomic.get total);
        Scheduler.shutdown sch);
  ]

let suite =
  scheduler_tests @ digest_tests @ cache_tests @ patch_tests @ soak_tests
