(* Three-valued combinational semantics: 0, 1, X (unknown).

   Yet another instance of the paper's "apply the circuit to a different
   signal type" idea (section 4): executing a circuit on ternary values
   performs X-propagation.  A gate output is known whenever the known
   inputs force it (0 on an and gate, 1 on an or gate), and X otherwise —
   Kleene's strong three-valued logic.

   The main use is power-up analysis (see {!Hydra_analyze.Sim}'s ternary
   simulator): flip flops whose value after reset should not matter
   start as X, and any output that settles to 0/1 is provably
   independent of them. *)

type t = F | T | X

let zero = F
let one = T
let constant b = if b then T else F

let of_bool = constant
let to_bool = function F -> Some false | T -> Some true | X -> None
let is_known = function F | T -> true | X -> false

let inv = function F -> T | T -> F | X -> X

let and2 a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, T -> T
  | X, (T | X) | T, X -> X

let or2 a b =
  match (a, b) with
  | T, _ | _, T -> T
  | F, F -> F
  | X, (F | X) | F, X -> X

let xor2 a b =
  match (a, b) with
  | X, _ | _, X -> X
  | T, T | F, F -> F
  | T, F | F, T -> T

let label _ s = s

let to_char = function F -> '0' | T -> '1' | X -> 'x'

let to_string w = String.init (List.length w) (fun i -> to_char (List.nth w i))

(* Refinement order: X is below both 0 and 1.  [refines a b] holds when
   [b] is consistent with [a] (either equal or [a] was unknown). *)
let refines a b = a = X || a = b

(* The same poset read as a lattice, both ways round.  [leq a b] is the
   information order used by X-propagation fixpoints (X at the bottom,
   values become more known going up); [join] is the least upper bound of
   the *constant-propagation* order, where X sits at the top ("not a
   constant") and joining two different constants loses the fact.  The
   two orders are mutual duals; the gates are monotone for both, which is
   what makes every Dataflow fixpoint terminate — test_dataflow checks
   the laws by QCheck. *)
let leq a b = a = X || a = b
let join a b = if a = b then a else X
