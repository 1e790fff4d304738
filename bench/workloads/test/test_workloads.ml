(* Unit tests of the workload benchmark's own machinery: statistics, span
   accounting, input generators and the determinism of every workload's
   checked answers. *)

open Workloads

let float_opt = Alcotest.(option (float 1e-12))
let close = Alcotest.float 1e-12

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check close "even" 3.5 (Stats.median [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "1..10" (2.75, 8.25) (Stats.quartiles (one_to 10));
  Alcotest.check pair "unsorted" (1.25, 5.75) (Stats.quartiles [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |]);
  Alcotest.check pair "two samples" (0.75, 8.25) (Stats.quartiles [| 7.; 2. |]);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread (one_to 10))

let test_percentile () =
  let xs = one_to 100 in
  Alcotest.check float_opt "p50 of 1..100" (Some 50.) (Stats.percentile ~p:50. xs);
  Alcotest.check float_opt "p90 of 1..100 has ten beyond" (Some 90.) (Stats.percentile ~p:90. xs);
  Alcotest.check float_opt "p90 of 1..99 has nine beyond" None (Stats.percentile ~p:90. (one_to 99));
  Alcotest.check float_opt "p99 of 1..100" None (Stats.percentile ~p:99. xs);
  Alcotest.check float_opt "p50 of 1..20" (Some 10.) (Stats.percentile ~p:50. (one_to 20));
  Alcotest.check float_opt "no samples" None (Stats.percentile ~p:50. [||]);
  Alcotest.check_raises "p outside (0, 100]" (Invalid_argument "Stats.percentile: p outside (0, 100]")
    (fun () -> ignore (Stats.percentile ~p:0. xs))

(* Spans in whole microseconds, so expected self times are exact. *)
let span id ?(parent = -1) t0 t1 =
  { Spans.id; name = Printf.sprintf "s%d" id; parent; req = 0; t0 = Int64.of_int (t0 * 1000);
    t1 = Int64.of_int (t1 * 1000) }

let us s = s *. 1e6

let test_self_nested () =
  (* root [0,100] > a [10,40] > b [20,30]; root > c [60,70] *)
  let root = span 0 0 100 and a = span 1 ~parent:0 10 40 and b = span 2 ~parent:1 20 30 in
  let c = span 3 ~parent:0 60 70 in
  let spans = [ root; a; b; c ] in
  Alcotest.check close "root self" 60. (us (Spans.self_time root [ a; c ]));
  Alcotest.check close "a self" 20. (us (Spans.self_time a [ b ]));
  Alcotest.check close "leaf self" 10. (us (Spans.self_time b []));
  let table = Spans.layers spans in
  Alcotest.check close "table root" 60. (us (List.assoc "s0" table).Spans.self_s);
  Alcotest.check close "proper nesting accounts exactly" 0. (Spans.accounting_error spans)

let test_self_overlapping () =
  (* children that overlap each other and the parent's end: the union
     [10,50] u [60,100] is subtracted once *)
  let root = span 0 0 100 in
  let kids = [ span 1 ~parent:0 10 30; span 2 ~parent:0 20 50; span 3 ~parent:0 25 35; span 4 ~parent:0 60 120 ] in
  Alcotest.check close "overlap merged, clipped to parent" 20. (us (Spans.self_time root kids));
  Alcotest.check close "disjoint child outside" 100. (us (Spans.self_time root [ span 5 ~parent:0 200 300 ]))

let test_spans_off () =
  Spans.reset ();
  Alcotest.(check int) "untraced call returns" 7 (Spans.span "x" (fun () -> 7));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Spans.spans ()))

let test_generators () =
  let eq what a b = Alcotest.(check string) what a b in
  let ne what a b = Alcotest.(check bool) what true (a <> b) in
  let batch seed = Gen.digest (Gen.program_batch ~seed ~req:3 16) in
  eq "programs: same seed" (batch 11) (batch 11);
  ne "programs: other seed" (batch 11) (batch 12);
  let seu seed = Gen.digest (Gen.seu_request ~seed ~req:5 ~run_cycles:60) in
  eq "seu: same seed" (seu 11) (seu 11);
  ne "seu: other seed" (seu 11) (seu 12);
  let round seed = Gen.digest (Gen.design_round ~seed ~round:0) in
  eq "design loop: same seed" (round 11) (round 11);
  ne "design loop: other seed" (round 11) (round 12);
  let stim seed =
    Gen.digest
      (Hydra_verify.Campaign.random_stimulus ~seed:(Gen.stimulus_seed ~seed ~req:2) ~cycles:6
         (Circuits.build "wallace:8"))
  in
  eq "stimulus: same seed" (stim 11) (stim 11);
  ne "stimulus: other seed" (stim 11) (stim 12)

(* The design-loop mix holds on every round, whatever the seed. *)
let test_design_mix () =
  let steps = Gen.design_round ~seed:3 ~round:1 in
  let count k = List.length (List.filter (fun s -> s.Gen.kind = k) steps) in
  let n = List.length steps in
  Alcotest.(check int) "round length" Gen.round_length n;
  List.iter
    (fun (k, pct) -> Alcotest.(check int) (Gen.kind_name k) (pct * n / 100) (count k))
    [ (Gen.Verify_opt, 40); (Gen.Edit, 25); (Gen.Reopen, 20); (Gen.Lint, 15) ]

(* BENCHMARK.json lists exactly the workloads and metrics a run prints,
   with the same units. *)
let test_catalogue () =
  let json = Json.parse (In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all) in
  let listed key field =
    match Json.member key json with
    | Some (Json.Arr entries) ->
      List.map
        (fun e ->
          match (Json.member "name" e, Json.member field e) with
          | Some (Json.Str n), Some (Json.Str v) -> (n, v)
          | _ -> Alcotest.failf "%s: entry without name or %s" key field)
        entries
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "workloads and reasons"
    (List.map (fun (w : Workload.t) -> (w.name, w.why)) Workload.all)
    (listed "workloads" "why");
  Alcotest.check pairs "end-to-end metrics" Report.end_to_end (listed "end_to_end" "unit");
  Alcotest.check pairs "per-layer metrics" Report.per_layer (listed "per_layer" "unit")

let test_results_digest (w : Workload.t) () =
  let run () = Run.end_to_end w ~seed:5 ~domains:1 ~warmup:0 ~setups:1 ~n:2 in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "no wrong answers" [] a.Run.errors;
  Alcotest.(check string) "same digest in a second run" a.Run.digest b.Run.digest

let () =
  Alcotest.run "workloads"
    [
      ( "stats",
        [ Alcotest.test_case "median" `Quick test_median; Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile refuses thin tails" `Quick test_percentile ] );
      ( "spans",
        [ Alcotest.test_case "self time, nested" `Quick test_self_nested;
          Alcotest.test_case "self time, overlapping" `Quick test_self_overlapping;
          Alcotest.test_case "off records nothing" `Quick test_spans_off ] );
      ( "gen",
        [ Alcotest.test_case "seeded determinism" `Quick test_generators;
          Alcotest.test_case "design-loop mix" `Quick test_design_mix ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json matches the report" `Quick test_catalogue ]);
      ( "digest",
        List.map
          (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (test_results_digest w))
          Workload.all );
    ]
