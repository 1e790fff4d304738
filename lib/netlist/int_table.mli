(** A mutable map from non-negative ints to ints: open addressing with
    linear probing over two flat int arrays, doubling at half load.  The
    one int-keyed table of the netlist passes ({!Netlist.extract}'s
    graph-id index, {!Optimize}'s dedup table). *)

type t

val create : int -> t
(** [create n]: an empty table sized for [n] entries without growing. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when it is unbound (a negative
    key is never bound).  Store only
    values other than [-1], or a bound key is indistinguishable from an
    unbound one. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t k v]: the value bound to [k] when it is bound, else
    [-1] after binding [k] to [v]; one probe either way.  Raises
    [Invalid_argument] on a negative key. *)

val replace : t -> int -> int -> unit
(** Bind a key, replacing any earlier binding.  Raises
    [Invalid_argument] on a negative key. *)
