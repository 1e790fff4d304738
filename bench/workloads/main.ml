(* The workload benchmark's command line.

     main.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1|FILE] [--json FILE]
     main.exe --check

   One workload runs in this process; [all] runs each workload in a
   fresh child process, one at a time.  Every metric is printed as
   "workload metric value unit", and the last line of standard output
   is one JSON result object.  Exit status: 0 when every answer checked
   out, 1 on a wrong answer, 2 on bad arguments.

   [--seconds] and [--trace 0|1] are the run length and the traced/
   untraced switch of the repository benchmark protocol, which appends
   "--workload W --seed N --seconds S --trace 0|1" to the command in
   BENCHMARK.json. *)

open Workloads

let workload_names = String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)

let usage =
  "usage: main.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1|FILE] [--json FILE]\n\
  \       main.exe --check\n\
   workloads: " ^ workload_names ^ "\n"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_string ("error: " ^ m ^ "\n" ^ usage);
      exit 2)
    fmt

(* [Trace_file f]: traced, and the Chrome trace is written to [f]. *)
type trace = Untraced | Traced | Trace_file of string

type opts = {
  workload : string option;
  seed : int option;
  seconds : int;
  trace : trace;
  json : string option;
  check : bool;
}

let writable_path what path =
  let dir = Filename.dirname path in
  if path = "" || not (Sys.file_exists dir && Sys.is_directory dir) then
    die "%s %S: directory %S does not exist" what path dir;
  path

let parse args =
  let rec go o = function
    | [] -> o
    | "--check" :: rest -> go { o with check = true } rest
    | "--workload" :: v :: rest ->
      if v <> "all" && Workload.find v = None then die "unknown workload %S (expected all, %s)" v workload_names;
      go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> go { o with seed = Some s } rest
      | None -> die "--seed %S is not an integer" v)
    | "--seconds" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s when s >= 1 && s <= 3600 -> go { o with seconds = s } rest
      | _ -> die "--seconds %S is not a whole number from 1 to 3600" v)
    | "--trace" :: v :: rest ->
      let trace =
        match v with
        | "0" -> Untraced
        | "1" -> Traced
        | path -> Trace_file (writable_path "--trace" path)
      in
      go { o with trace } rest
    | "--json" :: v :: rest -> go { o with json = Some (writable_path "--json" v) } rest
    | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--json") as flag ] -> die "%s needs a value" flag
    | arg :: _ -> die "unknown argument %S" arg
  in
  go { workload = None; seed = None; seconds = 15; trace = Untraced; json = None; check = false } args

let domains = min 2 (Domain.recommended_domain_count ())

(* The layer breakdown's call counts: whole-circuit layers, kernels. *)
let breakdown_calls = (21, 201)

let print_run (r : Run.run) =
  let w = r.Run.workload.Workload.name in
  List.iter
    (fun (name, v, unit_) ->
      Printf.printf "%s %s %s %s\n" w name (match v with Some f -> Json.number f | None -> "refused") unit_)
    r.Run.metrics;
  List.iter (fun (k, v) -> Printf.printf "%s %s %s\n" w k v) r.Run.info;
  if r.Run.table <> [] then begin
    Printf.printf "%s per-layer spans:\n  %-18s %8s %12s\n" w "layer" "calls" "self_s";
    List.iter
      (fun (name, l) -> Printf.printf "  %-18s %8d %12.6f\n" name l.Spans.calls l.Spans.self_s)
      r.Run.table
  end;
  List.iteri (fun i e -> if i < 10 then Printf.eprintf "%s: wrong answer: %s\n" w e) r.Run.errors

let result_json (r : Run.run) =
  Report.result ~correct:(Run.correct r) ~attempted:r.Run.requests ~failed:r.Run.failed r.Run.metrics

let write_file path contents = Out_channel.with_open_text path (fun oc -> output_string oc contents)

let run_one o (w : Workload.t) seed =
  let n = Workload.requests w ~seconds:o.seconds in
  let r =
    match o.trace with
    | Untraced -> Run.end_to_end w ~seed ~domains ~warmup:2 ~setups:21 ~n
    | Traced | Trace_file _ -> Run.traced w ~seed ~domains ~n ~breakdown:(Some breakdown_calls)
  in
  print_run r;
  (match o.trace with Trace_file f -> write_file f (Spans.to_chrome (Spans.spans ())) | _ -> ());
  let result = result_json r in
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str w.name);
                ("why", Json.Str w.why);
                ("work_unit", Json.Str w.work_unit);
                ("seed", Json.Num (float_of_int seed));
                ("info", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.Run.info));
                ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.Run.errors));
                ("result", result);
              ])
        ^ "\n"))
    o.json;
  print_endline (Json.to_string result);
  exit (if Run.correct r then 0 else 1)

(* Each workload in a fresh child process, one at a time; the children's
   lines pass through, and the last line sums their results. *)
let run_all o seed =
  let exe = Sys.executable_name in
  let children =
    List.map
      (fun (w : Workload.t) ->
        let per_workload path = path ^ "." ^ w.name in
        let args =
          [ exe; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds"; string_of_int o.seconds;
            "--trace";
            (match o.trace with Untraced -> "0" | Traced -> "1" | Trace_file f -> per_workload f) ]
          @ match o.json with Some f -> [ "--json"; per_workload f ] | None -> []
        in
        let ic = Unix.open_process_args_in exe (Array.of_list args) in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        let status = Unix.close_process_in ic in
        let result = try Some (Json.parse !last) with Json.Parse_error _ -> None in
        (w, status = Unix.WEXITED 0, result, Option.map per_workload o.json))
      Workload.all
  in
  let num k j = match Json.member k j with Some (Json.Num f) -> int_of_float f | _ -> 0 in
  let correct =
    List.for_all
      (fun (_, ok, r, _) -> ok && Option.bind r (Json.member "correct") = Some (Json.Bool true))
      children
  in
  let sum k = List.fold_left (fun a (_, _, r, _) -> a + Option.fold ~none:0 ~some:(num k) r) 0 children in
  let metrics =
    List.concat_map
      (fun ((w : Workload.t), _, r, _) ->
        match Option.bind r (Json.member "metrics") with
        | Some (Json.Obj ms) -> List.map (fun (k, v) -> (w.name ^ "." ^ k, v)) ms
        | _ -> [])
      children
  in
  Option.iter
    (fun path ->
      let parts =
        List.filter_map
          (fun (_, _, _, part) ->
            Option.bind part (fun p ->
                match In_channel.with_open_text p In_channel.input_all with
                | s ->
                  Sys.remove p;
                  Some (Json.parse s)
                | exception Sys_error _ -> None))
          children
      in
      write_file path (Json.to_string (Json.Obj [ ("workloads", Json.Arr parts) ]) ^ "\n"))
    o.json;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (sum "attempted")));
            ("failed", Json.Num (float_of_int (sum "failed")));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

(* Every workload at a few requests with every answer checked, plus the
   shape of both result objects, span accounting and the Chrome export:
   the harness's own smoke test. *)
let check () =
  let failures = ref 0 in
  let fail w fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        Printf.printf "check %s: FAIL %s\n%!" w m)
      fmt
  in
  let span_layer_metrics =
    List.filter (fun (name, _) -> not (List.mem_assoc name Breakdown.metric_names)) Report.per_layer
  in
  List.iter
    (fun (w : Workload.t) ->
      let shape what expected (r : Run.run) =
        if not (Run.correct r) then fail w.name "%s: %s" what (String.concat "; " r.Run.errors);
        match Report.check_shape ~expected (Json.to_string (result_json r)) with
        | Ok () -> ()
        | Error e -> fail w.name "%s result: %s" what e
      in
      let seed = 7 in
      shape "end-to-end" Report.end_to_end (Run.end_to_end w ~seed ~domains ~warmup:0 ~setups:1 ~n:3);
      let traced = Run.traced w ~seed ~domains ~n:6 ~breakdown:None in
      shape "traced" span_layer_metrics traced;
      let spans = Spans.spans () in
      let err = Spans.accounting_error spans in
      if err > 0.01 then fail w.name "span self times miss the request time by %.2f%%" (100. *. err);
      (match Json.parse (Spans.to_chrome spans) with
      | Json.Obj [ ("traceEvents", Json.Arr evs) ] when List.length evs = List.length spans -> ()
      | _ -> fail w.name "Chrome trace export does not round-trip"
      | exception Json.Parse_error e -> fail w.name "Chrome trace export: %s" e);
      Printf.printf "check %s: %d spans, accounting error %.2e\n%!" w.name (List.length spans) err)
    Workload.all;
  if !failures > 0 then exit 1;
  print_endline "check: ok"

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match (o.workload, o.seed) with
  | _ when o.check -> check ()
  | None, _ -> die "--workload is required"
  | _, None -> die "--seed is required"
  | Some "all", Some seed -> run_all o seed
  | Some name, Some seed -> run_one o (Option.get (Workload.find name)) seed
