(* In-memory span recorder for traced runs.  Spans are recorded from the
   benchmark's own files, around its calls into each layer; nothing is
   recorded (one branch per call) unless [enable] was called.  At exit
   the spans are exported as Chrome trace-event JSON (Perfetto and
   chrome://tracing open it) and summarized per layer by self time: a
   span's duration minus the union of its children's intervals. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** request index of the root, -1 for set-up *)
  t0 : int64;
  t1 : int64;
}

let on = ref false
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)
let recorded : span list ref = ref []

let enable () = on := true
let disable () = on := false

let reset () =
  next_id := 0;
  stack := [];
  recorded := []

let spans () = List.rev !recorded

(* [span_as f] runs [f], which returns its result together with the
   span's name — for a layer whose name depends on the outcome, like a
   cache lookup that turned out to be a hit or a miss.  Spans of calls
   that raise are recorded too, under the name "<error>". *)
let span_as f =
  if not !on then fst (f ())
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Stats.now_ns () in
    let finish name =
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; req = !current_req; t0; t1 = Stats.now_ns () } :: !recorded
    in
    match f () with
    | r, name ->
      finish name;
      r
    | exception e ->
      finish "<error>";
      raise e
  end

let span name f = span_as (fun () -> (f (), name))

(* A root span for request [req] (-1: set-up): every span opened inside
   carries its id. *)
let root ~req name f =
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := -1) (fun () -> span name f)

let duration s = Stats.seconds_between s.t0 s.t1

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s) spans;
  fun s -> Hashtbl.find_all tbl s.id

(* Seconds of [s] not covered by any of [kids] (each clipped to [s]):
   overlapping children are merged before subtraction, so concurrent
   children never make a self time negative. *)
let self_time s kids =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max c.t0 s.t0 and b = min c.t1 s.t1 in
        if a < b then Some (a, b) else None)
      kids
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if a < b then (acc +. Stats.seconds_between a b, b) else (acc, reach))
      (0., Int64.min_int)
      (List.sort compare clipped)
  in
  duration s -. covered

type layer = { calls : int; self_s : float }

(* Per-layer totals: calls and summed self time, by span name. *)
let layers spans =
  let kids = children_of spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l =
        Option.value ~default:{ calls = 0; self_s = 0. } (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { calls = l.calls + 1; self_s = l.self_s +. self_time s (kids s) })
    spans;
  List.sort compare (Hashtbl.fold (fun name l acc -> (name, l) :: acc) tbl [])

(* The largest relative gap, over roots, between a root's duration and
   the self times of all its descendants plus its own — zero when
   children nest properly inside their parents. *)
let accounting_error spans =
  let kids = children_of spans in
  let rec subtree s = self_time s (kids s) +. List.fold_left (fun a c -> a +. subtree c) 0. (kids s) in
  List.fold_left
    (fun worst s ->
      if s.parent >= 0 || duration s <= 0. then worst
      else Float.max worst (Float.abs (subtree s -. duration s) /. duration s))
    0. spans

let to_chrome spans =
  let origin = List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let event s =
    Printf.sprintf
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
      s.name (us s.t0) (us s.t1 -. us s.t0) s.id s.parent s.req
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map event spans) ^ "\n]}\n"
