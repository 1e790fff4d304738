(* The word-indexed face of a word-parallel engine.

   {!Slab} (K words per signal, 62*K lanes) and the reference packed
   simulator below expose the same operations once the word index is
   explicit; this signature is what the engine-polymorphic entry points
   ({!Testbench.run_batched} [?engine], {!Hydra_verify.Equiv}'s
   engine-vs-engine checks, the shared test battery) program against.
   Values of type [(module S)] are runtime handles — [Slab.engine] bakes
   a chosen K into one. *)

module type S = sig
  type t

  val name : string
  (** Display name for reports ("slab(k=8)", "oracle", ...). *)

  val create : Hydra_netlist.Netlist.t -> t
  (** An engine over the netlist; the handle fixes how it compiles. *)

  val words : t -> int
  (** Words per signal; total lanes = [62 * words t]. *)

  val replicate : t -> t
  val reset : t -> unit

  val set_input_word : t -> string -> int -> int -> unit
  (** [set_input_word t name w v]: packed word [w] (0-based) of an
      input. *)

  val set_input_lane : t -> string -> int -> bool -> unit
  (** Global lane index, [0 <= lane < 62 * words t]. *)

  val settle : t -> unit
  val tick : t -> unit
  val step : t -> unit
  val output_word : t -> string -> int -> int
  val output_lane : t -> string -> int -> bool
  val peek_word : t -> int -> int -> int
  val poke_word : t -> int -> int -> int -> unit
  val cycle : t -> int
  val netlist : t -> Hydra_netlist.Netlist.t
end

(* {!Hydra_analyze.Sim}'s packed 62-lane simulator as an engine handle
   (words = 1).  It interprets the netlist as given and shares no code
   with {!Kernel} — no pre-passes, no re-layout, no fused or blocked
   kernels — so it is the independent reference the compiled engines
   are checked against. *)
let oracle : (module S) =
  (module struct
    module Sim = Hydra_analyze.Sim
    module Netlist = Hydra_netlist.Netlist
    module P = Hydra_core.Packed

    type t = { sim : Sim.packed; nl : Netlist.t; mutable cycle : int }

    let name = "oracle"

    let create nl =
      { sim = Sim.packed_create nl; nl; cycle = 0 }

    let words _ = 1
    let replicate t = create t.nl

    let reset t =
      Sim.packed_reset t.sim;
      t.cycle <- 0

    let check_word what w =
      if w <> 0 then
        invalid_arg
          (Printf.sprintf "%s: word index %d out of range (engine has 1 word)"
             what w)

    let set_input_word t name w v =
      check_word "oracle.set_input_word" w;
      Sim.packed_set_input t.sim name v

    let set_input_lane t name lane b =
      if lane < 0 || lane >= P.lanes then
        invalid_arg
          (Printf.sprintf
             "oracle.set_input_lane: lane %d out of range (engine has %d lanes)"
             lane P.lanes);
      match List.assoc_opt name t.nl.Netlist.inputs with
      | Some i ->
        Sim.packed_set_input t.sim name
          (P.set_lane (Sim.packed_value t.sim i) lane b)
      | None -> invalid_arg ("oracle.set_input_lane: unknown input " ^ name)

    let settle t = Sim.packed_settle t.sim

    let tick t =
      Sim.packed_tick t.sim;
      t.cycle <- t.cycle + 1

    let step t =
      settle t;
      tick t

    let output_word t name w =
      check_word "oracle.output_word" w;
      Sim.packed_output t.sim name

    let output_lane t name lane = P.lane (Sim.packed_output t.sim name) lane

    let peek_word t i w =
      check_word "oracle.peek_word" w;
      Sim.packed_value t.sim i

    let poke_word t i w v =
      check_word "oracle.poke_word" w;
      Sim.packed_poke t.sim i v

    let cycle t = t.cycle
    let netlist t = t.nl
  end)
