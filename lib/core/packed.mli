(** Bit-parallel combinational semantics: a signal is a machine word
    carrying {!lanes} independent simulation runs, so one pass of a
    circuit evaluates it on up to 62 input vectors at once.  The lane
    layout and helpers here are shared with every word of the sequential
    slab engine ({!Hydra_engine.Slab}). *)

include Signal_intf.COMB with type t = int

val lanes : int
(** Number of parallel lanes (62: OCaml ints keep a tag bit and we keep
    the sign bit clear). *)

val lane_mask : int
(** All lanes set. *)

val broadcast : bool -> t
(** The same value in every lane (alias of {!constant}). *)

val pack : bool list -> t
(** Pack per-lane values; element 0 goes to lane 0. *)

val pack_array : bool array -> t
(** Array variant of {!pack}. *)

val lane : t -> int -> bool
(** Extract one lane. *)

val set_lane : t -> int -> bool -> t
(** Replace one lane, leaving the others unchanged. *)

val unpack : count:int -> t -> bool list
(** First [count] lanes. *)

val unpack_array : count:int -> t -> bool array
(** Array variant of {!unpack}. *)

val mask_of_count : int -> t
(** All-ones over the first [count] lanes: the valid-lane mask for a
    partially filled pass. *)

val random_word : Random.State.t -> t
(** A uniformly random value in every lane. *)

val enumerate : inputs:int -> (t list * int) Seq.t
(** [enumerate ~inputs] packs all [2^inputs] input assignments into
    passes, produced lazily: each element is (one packed word per input
    variable, number of valid lanes).  Lane [l] of pass words holds one
    assignment; the assignment ordering matches {!Bit.vectors} (variable
    0 is the MSB of the vector index).  Consumers that stop early only
    pay for the passes they force.  Raises for more than 30 inputs (a
    2^30-assignment sweep is already ~17M passes). *)
