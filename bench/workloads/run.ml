(* Running one workload: cold set-ups, a closed-loop pass of requests,
   and the end-to-end or per-layer metrics of the run. *)

type pass = {
  latencies : float array;  (** seconds per request; infinity for a failed one *)
  busy : float;  (** summed timed seconds *)
  work : float;
  failed : int;
  errors : string list;  (** oldest first *)
  answers : string;  (** one line per checked request *)
  slowdown : float;
      (** the median {!Probe} sample over {!Probe.reference_s}: above 1 on
          a host slower than the reference *)
}

let describe = function Workload.Wrong m -> m | e -> Printexc.to_string e

(* Host-speed samples per pass: enough for a steady median, few enough
   that the probe, which evicts the requests' data from the caches, runs
   before only one request in six on design-loop. *)
let probe_samples = 100

let run_pass (inst : Workload.instance) ~domains n =
  let latencies = Array.make n infinity in
  let busy = ref 0. and work = ref 0. and failed = ref 0 and errors = ref [] in
  let answers = Buffer.create 4096 in
  let every = max 1 (n / probe_samples) in
  let samples = Array.make (((n - 1) / every) + 1) 0. in
  let probe = Probe.create ~domains in
  for i = 0 to n - 1 do
    if i mod every = 0 then samples.(i / every) <- Probe.sample probe;
    Spans.root ~req:i "request" (fun () ->
        let outcome =
          match Spans.span "bench" (fun () -> inst.Workload.prepare i) with
          | exception e -> Error e
          | call -> (
            let t0 = Stats.now_ns () in
            let check = try Ok (call ()) with e -> Error e in
            let dt = Stats.seconds_between t0 (Stats.now_ns ()) in
            busy := !busy +. dt;
            match check with
            | Error e -> Error e
            | Ok check -> (
              match Spans.span "golden" check with
              | o ->
                latencies.(i) <- dt;
                Ok o
              | exception e -> Error e))
        in
        match outcome with
        | Ok o ->
          work := !work +. o.Workload.work;
          Buffer.add_string answers o.Workload.answer;
          Buffer.add_char answers '\n'
        | Error e ->
          incr failed;
          errors := Printf.sprintf "request %d: %s" i (describe e) :: !errors)
  done;
  { latencies; busy = !busy; work = !work; failed = !failed; errors = List.rev !errors;
    answers = Buffer.contents answers; slowdown = Stats.median samples /. Probe.reference_s }

(* A cold set-up of its own — fresh netlists, cache and scheduler — from
   a compacted heap, closed at once; returns its seconds. *)
let timed_setup (w : Workload.t) ~seed ~domains =
  Gc.compact ();
  let inst, dt = Stats.time (fun () -> w.setup ~seed ~domains) in
  inst.close ();
  dt

type run = {
  workload : Workload.t;
  requests : int;
  failed : int;
  errors : string list;
  metrics : (string * float option * string) list;
  info : (string * string) list;  (** extra human-readable lines *)
  table : (string * Spans.layer) list;  (** per-layer spans, traced runs only *)
  digest : string;  (** [results_digest]: a hash of every checked answer, in order *)
}

let correct r = r.failed = 0 && r.errors = []

let results_digest p = Digest.to_hex (Digest.string p.answers)

let ms s = s *. 1e3

(* Times and rates at the reference host speed (see {!Probe}). *)
let work_per_s p = p.work /. p.busy *. p.slowdown
let latency_ms p ~pct = Option.map (fun s -> ms s /. p.slowdown) (Stats.percentile ~p:pct p.latencies)

let host_info ~domains =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ())); ("domains", string_of_int domains) ]

let number_or_refused unit_ = function Some v -> Json.number v ^ " " ^ unit_ | None -> "refused"

(* An untraced run of [n] requests on one set-up.  [setup_s] is the
   median of [setups] more cold set-ups, half before the requests and
   half after them, so a slow spell of the host at either end touches
   only half.  (Set-ups interleaved with the requests would keep two
   instances alive at once and raise [peak_rss_mb] up to 2.7x.)
   [warmup] untimed set-ups come first: the first three or four set-ups
   in a process run up to 1.8x slower while the heap grows. *)
let end_to_end (w : Workload.t) ~seed ~domains ~warmup ~setups ~n =
  let setup_times = Array.make setups 0. in
  let timed j = setup_times.(j) <- timed_setup w ~seed ~domains in
  for _ = 1 to warmup do
    ignore (timed_setup w ~seed ~domains)
  done;
  for j = 0 to (setups / 2) - 1 do
    timed j
  done;
  let inst = w.setup ~seed ~domains in
  let p = Fun.protect ~finally:inst.close (fun () -> run_pass inst ~domains n) in
  for j = setups / 2 to setups - 1 do
    timed j
  done;
  let setup_s = Stats.median setup_times in
  {
    workload = w;
    requests = n;
    failed = p.failed;
    errors = p.errors;
    metrics =
      [
        ("work_per_s", Some (work_per_s p), "1/s");
        ("latency_p90_ms", latency_ms p ~pct:90., "ms");
        ("setup_s", Some (setup_s /. p.slowdown), "s");
        ("peak_rss_mb", Some (Stats.peak_rss_mb ()), "MB");
      ];
    info =
      host_info ~domains
      @ [
          ("requests", string_of_int n);
          ("failed_frac", Json.number (float_of_int p.failed /. float_of_int n));
          (w.work_unit ^ "_per_s", Json.number (work_per_s p));
          (* not in BENCHMARK.json: on a shared host cpu-programs requests
             switch between two speed levels for seconds at a time, and
             its median jumps between them from run to run *)
          ("latency_p50_ms", number_or_refused "ms" (latency_ms p ~pct:50.));
          ("latency_samples", string_of_int (Array.length p.latencies));
          ("setup_samples", string_of_int setups);
          ("probe_ms", Json.number (ms (p.slowdown *. Probe.reference_s)));
          ("unscaled_work_per_s", Json.number (p.work /. p.busy));
          ("unscaled_latency_p90_ms", number_or_refused "ms" (Option.map ms (Stats.percentile ~p:90. p.latencies)));
          ("unscaled_setup_s", Json.number setup_s);
          ("results_digest", results_digest p);
        ];
    table = [];
    digest = results_digest p;
  }

let span_metrics spans =
  let table = Spans.layers spans in
  ( table,
    List.concat_map
      (fun name ->
        let l = Option.value ~default:{ Spans.calls = 0; self_s = 0. } (List.assoc_opt name table) in
        [ (name ^ ".calls", Some (float_of_int l.Spans.calls), "count"); (name ^ ".self_s", Some l.Spans.self_s, "s") ])
      Report.span_layers )

(* A traced run: the first half of the requests runs untraced, then the
   same requests again on a fresh, traced set-up, so the tracing
   overhead compares identical work and the two halves must give the
   same [results_digest]; then the layer breakdown.  [breakdown] is
   [None] to skip it (the --check mode). *)
let traced (w : Workload.t) ~seed ~domains ~n ~breakdown =
  let half = max 1 (n / 2) in
  let inst = w.setup ~seed ~domains in
  let plain = Fun.protect ~finally:inst.close (fun () -> run_pass inst ~domains half) in
  Gc.compact ();
  Spans.reset ();
  Spans.enable ();
  let inst = Spans.root ~req:(-1) "setup" (fun () -> w.setup ~seed ~domains) in
  let p, counters =
    Fun.protect ~finally:inst.close (fun () ->
        let p = run_pass inst ~domains half in
        (p, inst.counters ()))
  in
  Spans.disable ();
  let spans = Spans.spans () in
  let table, span_rows = span_metrics spans in
  let counter name = Option.value ~default:0. (List.assoc_opt name counters) in
  let breakdown_rows =
    match breakdown with
    | None -> []
    | Some (calls, kernel_calls) -> Breakdown.run ~calls ~kernel_calls ~domains ()
  in
  let bd name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) breakdown_rows in
  (* kernel seconds the campaign spans would hold if every chunk cost
     [cycles] plain settle+tick passes on one domain: an estimate of how
     much of a campaign is kernel and how much is campaign overhead *)
  let kernel_share =
    match (w.name, bd "breakdown.wallace64.settle_us", bd "breakdown.wallace64.tick_us") with
    | "fault-wallace64", Some settle, Some tick ->
      let campaign = Option.value ~default:{ Spans.calls = 0; self_s = 0. } (List.assoc_opt "campaign" table) in
      let passes = float_of_int campaign.Spans.calls *. counter "campaign.chunks" in
      let kernel_s = passes *. float_of_int Workload.wallace_cycles *. (settle +. tick) *. 1e-6 in
      if campaign.Spans.self_s > 0. then kernel_s /. (campaign.Spans.self_s *. float_of_int domains) else 0.
    | _ -> 0.
  in
  let nondeterministic =
    if results_digest plain <> results_digest p then
      [ "the traced requests' answers differ from the same requests untraced" ]
    else []
  in
  {
    workload = w;
    requests = 2 * half;
    failed = plain.failed + p.failed;
    errors = plain.errors @ p.errors @ nondeterministic;
    metrics =
      span_rows
      @ List.map (fun (name, unit_) -> (name, Some (counter name), unit_)) Report.counters
      @ [
          ("trace.overhead_frac", Some ((work_per_s plain /. work_per_s p) -. 1.), "frac");
          ("trace.accounting_error", Some (Spans.accounting_error spans), "frac");
          ("campaign.kernel_share_est", Some kernel_share, "frac");
          ("host.nproc", Some (float_of_int (Domain.recommended_domain_count ())), "count");
          ("host.domains", Some (float_of_int domains), "count");
        ]
      @ List.map (fun (name, v, unit_) -> (name, Some v, unit_)) breakdown_rows;
    info =
      host_info ~domains
      @ [
          ("requests", Printf.sprintf "%d untraced + %d traced" half half);
          ("results_digest", results_digest p);
        ];
    table;
    digest = results_digest p;
  }
