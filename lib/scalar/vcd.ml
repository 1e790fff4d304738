(* VCD (value change dump) output: record named input/output signals of a
   compiled simulation so waveforms can be inspected in standard viewers
   (GTKWave etc.).  One VCD time unit per clock cycle — the synchronous
   view of the circuit. *)

type signal = { name : string; code : string; mutable last : bool option }

type t = {
  buf : Buffer.t;
  signals : (string * signal) list;  (* keyed by name *)
  mutable time : int;
  mutable headered : bool;
}

let id_code i =
  (* printable short identifiers starting at '!' *)
  let base = 94 and start = 33 in
  let rec go i acc =
    let c = Char.chr (start + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create ~signals:names =
  let signals =
    List.mapi (fun i n -> (n, { name = n; code = id_code i; last = None })) names
  in
  { buf = Buffer.create 1024; signals; time = 0; headered = false }

let header t =
  Buffer.add_string t.buf "$date reproduction run $end\n";
  Buffer.add_string t.buf "$version hydra-ocaml $end\n";
  Buffer.add_string t.buf "$timescale 1ns $end\n";
  Buffer.add_string t.buf "$scope module circuit $end\n";
  List.iter
    (fun (_, s) ->
      Buffer.add_string t.buf
        (Printf.sprintf "$var wire 1 %s %s $end\n" s.code s.name))
    t.signals;
  Buffer.add_string t.buf "$upscope $end\n$enddefinitions $end\n";
  t.headered <- true

(* Record the sampled values for one clock cycle. *)
let sample t values =
  if not t.headered then header t;
  let changes =
    List.filter_map
      (fun (name, v) ->
        match List.assoc_opt name t.signals with
        | None -> None
        | Some s ->
          if s.last = Some v then None
          else begin
            s.last <- Some v;
            Some (Printf.sprintf "%d%s" (Bool.to_int v) s.code)
          end)
      values
  in
  if changes <> [] then begin
    Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.time);
    List.iter (fun c -> Buffer.add_string t.buf (c ^ "\n")) changes
  end;
  t.time <- t.time + 1

let contents t =
  if not t.headered then header t;
  Buffer.contents t.buf

let to_file t path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc

(* Convenience: run a compiled simulation and dump inputs + outputs,
   sampling each cycle's driven inputs and settled outputs from inside
   the run loop. *)
let of_compiled_run sim ~inputs ~cycles =
  let t =
    create ~signals:(List.map fst inputs @ List.map fst (Compiled.outputs sim))
  in
  let driven = ref [] in
  let set_input sim name b =
    driven := (name, b) :: !driven;
    Compiled.set_input sim name b
  in
  let outputs sim =
    let outs = Compiled.outputs sim in
    sample t (List.rev_append !driven outs);
    driven := [];
    outs
  in
  ignore
    (Run.loop ~reset:Compiled.reset ~set_input ~settle:Compiled.settle ~outputs
       ~tick:Compiled.tick sim ~inputs ~cycles);
  t
