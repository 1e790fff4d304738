(* Bit-parallel combinational semantics: a signal is a machine word
   carrying up to [lanes] independent simulation runs at once.

   Executing a circuit once on packed signals evaluates it on 62 test
   vectors simultaneously — the classic trick for fast exhaustive or
   random testing of combinational logic (paper section 4.2 argues
   simulation is the practical workhorse; this makes it 62x wider per
   gate operation).  The same lane layout is every word of the
   sequential slab engine ({!Hydra_engine.Slab}), which reuses the
   helpers below. *)

type t = int

let lanes = 62  (* OCaml ints are 63-bit; keep the sign bit clear *)
let lane_mask = (1 lsl lanes) - 1

let zero = 0
let one = lane_mask
let constant b = if b then one else zero
let inv a = lnot a land lane_mask
let and2 a b = a land b
let or2 a b = a lor b
let xor2 a b = a lxor b
let label _ s = s

(* Shared lane helpers ------------------------------------------------- *)

let broadcast = constant

(* Pack per-lane booleans (lane 0 = least significant bit). *)
let pack bs =
  List.fold_left (fun (acc, i) b -> ((if b then acc lor (1 lsl i) else acc), i + 1)) (0, 0) bs
  |> fst

let pack_array bs =
  let w = ref 0 in
  Array.iteri (fun i b -> if b then w := !w lor (1 lsl i)) bs;
  !w

let lane v i = (v lsr i) land 1 = 1
let set_lane v i b = if b then v lor (1 lsl i) else v land lnot (1 lsl i)
let unpack ~count v = List.init count (lane v)
let unpack_array ~count v = Array.init count (lane v)

(* All-ones over the first [count] lanes — the valid-lane mask for a
   partially filled pass. *)
let mask_of_count count =
  if count >= lanes then lane_mask else (1 lsl count) - 1

(* A uniformly random word over all 62 lanes.  [Random.State.bits] yields
   30 bits at a time; three draws cover the word ([Random.State.int]
   cannot take [2^62] as a bound). *)
let random_word st =
  let b0 = Random.State.bits st
  and b1 = Random.State.bits st
  and b2 = Random.State.bits st in
  (b0 lor (b1 lsl 30) lor (b2 lsl 60)) land lane_mask

(* All input assignments for [inputs] variables, packed into ceil(2^inputs
   / lanes) passes, produced lazily: [enumerate ~inputs] is a sequence of
   (input words, valid lane count) pairs; input word [j] carries variable
   j's value in each lane.  Lazy so that exhaustive sweeps over many
   inputs never materialize the whole pass list — consumers that stop
   early (a counterexample found) pay only for the passes they force. *)
let enumerate ~inputs =
  if inputs > 30 then
    invalid_arg "Packed.enumerate: too many inputs (max 30)";
  let total = 1 lsl inputs in
  let rec passes start () =
    if start >= total then Seq.Nil
    else begin
      let count = min lanes (total - start) in
      let words =
        List.init inputs (fun j ->
            let w = ref 0 in
            for l = 0 to count - 1 do
              (* vector index start+l, variable j; MSB-first convention to
                 match Bit.vectors *)
              if (start + l) lsr (inputs - 1 - j) land 1 = 1 then
                w := !w lor (1 lsl l)
            done;
            !w)
      in
      Seq.Cons ((words, count), passes (start + count))
    end
  in
  passes 0
