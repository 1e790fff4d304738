(** Three-valued combinational semantics: 0, 1 and X (unknown), under
    Kleene's strong logic.  Executing a circuit at this instance performs
    X-propagation; {!Hydra_analyze.Sim}'s ternary simulator uses it for
    power-up and reset analysis. *)

type t = F | T | X

include Signal_intf.COMB with type t := t

val of_bool : bool -> t
val to_bool : t -> bool option
(** [None] when unknown. *)

val is_known : t -> bool
val to_char : t -> char
(** ['0'], ['1'] or ['x']. *)

val to_string : t list -> string

val refines : t -> t -> bool
(** [refines a b]: [b] is consistent with [a] — equal, or [a] was [X].
    Gates are monotone with respect to this order. *)

val leq : t -> t -> bool
(** The information order ([X] at the bottom, [0]/[1] incomparable above
    it): [leq a b] iff [a = X] or [a = b].  Every gate transfer function
    is monotone for it — the termination argument of every
    {!Hydra_analyze.Dataflow} fixpoint. *)

val join : t -> t -> t
(** Least upper bound of the constant-propagation lattice ([X] read as
    "not a constant", at the top): equal values stay, different ones
    become [X].  Commutative, associative, idempotent (QCheck-tested). *)
