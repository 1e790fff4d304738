(* The metric catalogue (what BENCHMARK.json lists) and the one result
   object every run prints as its last line. *)

let end_to_end =
  [ ("work_per_s", "1/s"); ("latency_p90_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

(* Span names recorded by the workloads: roots ("setup", "request"),
   the benchmark's own input generation ("bench") and checking
   ("golden"), and one per layer called. *)
let span_layers =
  [ "setup"; "request"; "bench"; "golden"; "netlist.build"; "optimize"; "cache.hit"; "cache.miss";
    "kernel.compile"; "kernel.patch"; "equiv"; "lint"; "slab"; "campaign"; "driver.run_many" ]

let counters =
  [ ("cache.hit_ratio", "frac"); ("cache.evictions", "count"); ("kernel.patch.recompiled_frac", "frac");
    ("campaign.chunks", "count"); ("campaign.detected_frac", "frac"); ("campaign.latent_frac", "frac");
    ("driver.sim_cycles", "count") ]

let per_layer =
  List.concat_map (fun l -> [ (l ^ ".calls", "count"); (l ^ ".self_s", "s") ]) span_layers
  @ counters
  @ [ ("trace.overhead_frac", "frac"); ("trace.accounting_error", "frac");
      ("campaign.kernel_share_est", "frac"); ("host.nproc", "count"); ("host.domains", "count") ]
  @ Breakdown.metric_names

(* [metrics] are [(name, value, unit)]; a [None] value is a percentile
   refused for lack of samples and prints as null. *)
let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit_) ->
               ( name,
                 Json.Obj
                   [ ("value", match v with Some f -> Json.Num f | None -> Json.Null); ("unit", Json.Str unit_) ] ))
             metrics) );
    ]

(* Check a printed result line against the contract: exactly the four
   keys, whole counts, and exactly the [expected] metrics with their
   units.  Only the latency percentiles may be null (refused). *)
let check_shape ~expected line =
  let ( let* ) = Result.bind in
  let* json = try Ok (Json.parse line) with Json.Parse_error m -> Error m in
  let whole = function Some (Json.Num f) when Float.is_integer f && f >= 0. -> Ok f | _ -> Error "count" in
  let* () =
    match json with
    | Json.Obj l when List.map fst l = [ "correct"; "attempted"; "failed"; "metrics" ] -> Ok ()
    | _ -> Error "result keys are not exactly correct, attempted, failed, metrics"
  in
  let* attempted = Result.map_error (fun _ -> "attempted is not a whole number") (whole (Json.member "attempted" json)) in
  let* _ = Result.map_error (fun _ -> "failed is not a whole number") (whole (Json.member "failed" json)) in
  let* () = if attempted >= 1. then Ok () else Error "attempted is below 1" in
  let* () = match Json.member "correct" json with Some (Json.Bool _) -> Ok () | _ -> Error "correct is not a bool" in
  match Json.member "metrics" json with
  | Some (Json.Obj ms) when List.map fst ms = List.map fst expected ->
    List.fold_left
      (fun acc (name, unit_) ->
        let* () = acc in
        let m = List.assoc name ms in
        let* () =
          match Json.member "unit" m with
          | Some (Json.Str u) when u = unit_ -> Ok ()
          | _ -> Error (name ^ ": wrong unit")
        in
        match Json.member "value" m with
        | Some (Json.Num _) -> Ok ()
        | Some Json.Null when String.starts_with ~prefix:"latency_" name -> Ok ()
        | _ -> Error (name ^ ": value is not a number"))
      (Ok ()) expected
  | _ -> Error "metric names differ from the catalogue"
