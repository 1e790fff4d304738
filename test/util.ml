(* Shared helpers for the test suites. *)

module Bit = Hydra_core.Bit
module Bitvec = Hydra_core.Bitvec
module Patterns = Hydra_core.Patterns

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool_list = Alcotest.(check (list bool))
let check_int_list = Alcotest.(check (list int))
let check_rows = Alcotest.(check (list (list bool)))

let tc name f = Alcotest.test_case name `Quick f

(* A slab engine compiled with the given flags. *)
let slab_of ?relayout ?fuse ~k nl =
  Hydra_engine.Slab.of_program (Hydra_engine.Kernel.compile ?relayout ?fuse ~k nl)

let qc ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Generators *)
let gen_width = QCheck2.Gen.int_range 1 12
let gen_word width = QCheck2.Gen.list_size (QCheck2.Gen.return width) QCheck2.Gen.bool

let gen_sized_word =
  QCheck2.Gen.(gen_width >>= fun w -> pair (return w) (gen_word w))

(* Evaluate a Bit-semantics word circuit on integer operands. *)
let eval2 ~width f x y =
  let xs = Bitvec.of_int ~width x and ys = Bitvec.of_int ~width y in
  Bitvec.to_int (f xs ys)

let mask width = (1 lsl width) - 1

(* A tiny JSON well-formedness scanner: enough to check the --json and
   --sarif contracts parse (balanced structure, legal strings/numbers),
   without pulling a JSON library into the build. *)
let json_parses (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\n' | '\t' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('0' .. '9' | '-') -> number ()
      | Some 't' -> keyword "true"
      | Some 'f' -> keyword "false"
      | Some 'n' -> keyword "null"
      | _ -> fail := true
    end
  and keyword k =
    String.iter (fun c -> expect c) k
  and number () =
    let continue = ref true in
    while !continue do
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance ()
      | _ -> continue := false
    done
  and string_lit () =
    expect '"';
    let continue = ref true in
    while !continue && not !fail do
      match peek () with
      | Some '"' -> advance (); continue := false
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail := true
          done
        | _ -> fail := true)
      | Some _ -> advance ()
      | None -> fail := true
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let continue = ref true in
      while !continue && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' -> advance (); continue := false
        | _ -> fail := true
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let continue = ref true in
      while !continue && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' -> advance (); continue := false
        | _ -> fail := true
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n
