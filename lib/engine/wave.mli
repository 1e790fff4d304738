(** ASCII waveform rendering for simulation traces: bits as level traces
    with edge marks, words as hex lanes showing changes. *)

type signal

val bit : string -> bool list -> signal
(** A named 1-bit trace, one value per cycle. *)

val bus : ?hex_digits:int -> string -> int list -> signal
(** A named word trace. *)

val of_bool_rows : names:string list -> bool list list -> signal list
(** Per-cycle rows (in [names] order) to one bit trace per name. *)

val render : signal list -> string
