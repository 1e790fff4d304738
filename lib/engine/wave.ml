(* ASCII waveform rendering for simulation traces.

   The simulation drivers of paper section 6.4 exist to make circuit
   outputs readable; this module renders per-cycle signal values as text
   waveforms — single bits as level traces, words as hex lanes — so a
   trace can be inspected directly in a terminal or a test log. *)

type signal =
  | Bit of string * bool list          (* name, value per cycle *)
  | Bus of string * int list * int     (* name, value per cycle, hex width *)

let bit name values = Bit (name, values)

let bus ?(hex_digits = 4) name values = Bus (name, values, hex_digits)

let of_bool_rows ~names rows =
  (* rows: one list of bools per cycle, in [names] order *)
  List.mapi
    (fun i name -> Bit (name, List.map (fun row -> List.nth row i) rows))
    names

(* Single-bit trace: high = "▔" would be unicode; stay ASCII:
   low = '_', high = '-', with '/' and '\' marking edges. *)
let render_bit values =
  let buf = Buffer.create 64 in
  let rec go prev = function
    | [] -> ()
    | v :: rest ->
      (match (prev, v) with
      | Some false, true -> Buffer.add_char buf '/'
      | Some true, false -> Buffer.add_char buf '\\'
      | _ -> Buffer.add_char buf (if v then '-' else '_'));
      Buffer.add_char buf (if v then '-' else '_');
      go (Some v) rest
  in
  go None values;
  Buffer.contents buf

(* Bus trace: each cycle is the value in hex, separated by '|' at value
   changes and padded with spaces. *)
let render_bus values hex_digits =
  let cell = hex_digits in
  let buf = Buffer.create 64 in
  let rec go prev = function
    | [] -> ()
    | v :: rest ->
      let changed = match prev with Some p -> p <> v | None -> true in
      if changed then
        Buffer.add_string buf (Printf.sprintf "|%0*x" cell v)
      else begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf (String.make cell '.')
      end;
      go (Some v) rest
  in
  go None values;
  Buffer.contents buf

let render signals =
  let name_width =
    List.fold_left
      (fun acc s ->
        max acc
          (String.length (match s with Bit (n, _) | Bus (n, _, _) -> n)))
      0 signals
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      let name, line =
        match s with
        | Bit (n, vs) -> (n, render_bit vs)
        | Bus (n, vs, w) -> (n, render_bus vs w)
      in
      Buffer.add_string buf (Printf.sprintf "%-*s %s\n" name_width name line))
    signals;
  Buffer.contents buf
