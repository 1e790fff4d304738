(* An int -> int map for non-negative keys: open addressing with linear
   probing over two flat int arrays, a power-of-two capacity and doubling
   when half full.  No boxing per entry and no polymorphic hash, which is
   what the graph-id index of [Netlist.extract] and the dedup table of
   [Optimize] spend their lookups on. *)

type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

let empty = -1

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap empty; vals = Array.make !cap 0; size = 0 }

(* a multiplicative mix, so structured keys (dedup's mixed-radix ints)
   spread over the low bits the mask keeps *)
let home keys k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land (Array.length keys - 1)

(* the slot holding [k], or the empty slot that ends its probe *)
let rec probe keys k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = empty then i else probe keys k ((i + 1) land (Array.length keys - 1))

let find t k =
  let i = probe t.keys k (home t.keys k) in
  if Array.unsafe_get t.keys i = k && k <> empty then Array.unsafe_get t.vals i else -1

(* [k]'s slot, after doubling the table if adding [k] would fill more
   than half of it *)
let rec slot t k =
  if k < 0 then invalid_arg "Int_table: negative key";
  let i = probe t.keys k (home t.keys k) in
  if t.keys.(i) = k || 2 * (t.size + 1) <= Array.length t.keys then i
  else begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) empty;
    t.vals <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun j k' ->
        if k' <> empty then begin
          let i = probe t.keys k' (home t.keys k') in
          t.keys.(i) <- k';
          t.vals.(i) <- vals.(j)
        end)
      keys;
    slot t k
  end

let find_or_add t k v =
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i)
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    -1
  end

let replace t k v =
  let i = slot t k in
  if t.keys.(i) <> k then begin
    t.keys.(i) <- k;
    t.size <- t.size + 1
  end;
  t.vals.(i) <- v
