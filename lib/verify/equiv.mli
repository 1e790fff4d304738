(** Combinational equivalence checking: symbolic (execute the circuit at
    a BDD semantics and compare canonical forms), exhaustive, and random
    (paper section 4.6). *)

(** A COMB instance whose signals are BDDs over a manager. *)
module type BDD_COMB = sig
  include Hydra_core.Signal_intf.COMB with type t = Bdd.t

  val manager : Bdd.manager
end

val bdd_comb : Bdd.manager -> (module BDD_COMB)

type circuit = {
  apply :
    'a.
    (module Hydra_core.Signal_intf.COMB with type t = 'a) ->
    'a list ->
    'a list;
}
(** A circuit abstracted over its semantics — the form every Hydra
    circuit naturally has, packaged first-class so one value can be run on
    booleans, BDDs, graphs, ... *)

type counterexample = bool list

type result = Equivalent | Inequivalent of counterexample

val bdd_equiv : inputs:int -> circuit -> circuit -> result
(** Complete symbolic check over all [2^inputs] assignments.  Variable [i]
    of the BDD order is input [i]; order the inputs so related operand
    bits are adjacent (interleaved) to keep BDDs small. *)

val bdd_outputs : inputs:int -> circuit -> Bdd.manager * Bdd.t list
(** The circuit's output functions as BDDs over fresh variables. *)

val exhaustive : inputs:int -> circuit -> circuit -> result
(** Complete enumeration at the Bit semantics. *)

val packed_exhaustive : inputs:int -> circuit -> circuit -> result
(** Complete enumeration at the {!Hydra_core.Packed} semantics: 62
    assignments per evaluation.  Same guarantee as {!exhaustive}, much
    faster.  [inputs] ≤ 30 (the pass stream is lazy, so early
    counterexamples never materialize the rest). *)

val random : ?trials:int -> inputs:int -> circuit -> circuit -> result
(** Deterministic pseudo-random sampling: a cheap falsifier. *)

val packed_random : ?trials:int -> inputs:int -> circuit -> circuit -> result
(** {!random} at the {!Hydra_core.Packed} semantics: 62 vectors per
    circuit evaluation, so [trials] vectors cost ceil(trials/62)
    passes. *)

(** {1 Sequential netlist equivalence on the 62-lane engine} *)

type seq_result =
  | Seq_equivalent
  | Seq_mismatch of {
      output : string;
      cycle : int;
      inputs : (string * bool list) list;
          (** the failing lane's per-input stimulus streams, cycle 0
              through the failing cycle *)
    }

val wide_random_netlists :
  ?scheduler:Hydra_engine.Scheduler.t ->
  ?cache:Hydra_engine.Cache.t ->
  ?passes:int ->
  ?cycles:int ->
  ?seed:int ->
  ?domains:int ->
  ?deadline:float ->
  Hydra_netlist.Netlist.t ->
  Hydra_netlist.Netlist.t ->
  seq_result
(** Random sequential equivalence of two netlists with the same port
    names, on the 62-lane engine ([Slab] at k = 1): each of [passes]
    (default 8)
    passes drives 62 random stimulus streams for [cycles] (default 32)
    cycles into both circuits and compares every output word every cycle
    — dffs included, ~60x fewer simulator passes than lane-at-a-time
    sampling.  The workhorse check for optimized-vs-original netlists.
    The passes are the tasks of one {!Hydra_engine.Scheduler} job, each
    on its own pair of engine replicas: on [?scheduler]'s shared team
    (which overrides [?domains]), otherwise on a private scheduler of
    [?domains] (default 1) members.  Every pass seeds its own RNG from
    ([seed], pass index), so the stimulus — and the reported mismatch,
    always the lowest-index failing pass — is the same at any team size.
    With [?cache] the two base engines come from the compiled-circuit
    cache ([Cache.slab ~k:1]).  Before the passes, the two sides are
    prepared as one two-task job on the same team: each validates its
    netlist, creates its engine (digest and cache lookup, or compile)
    and replicates it per member.  [?deadline] bounds both jobs
    together in wall-clock seconds: the pass job gets what the sides
    left, and either times out between tasks with
    {!Hydra_engine.Resilience.Deadline_exceeded}.

    Both netlists are validated ({!Hydra_analyze.Certify.validate})
    before any engine simulates them ([nl2] only when it is not
    physically [nl1]); a malformed one raises [Invalid_argument] naming
    the defect, so a [Seq_mismatch] always means the engines genuinely
    disagree and never that a generator emitted a corrupt netlist.  The
    error raised is the same at any team size: [nl1]'s invalidity
    first, then [nl2]'s, then differing port names, then a failure to
    create [nl1]'s engine, then [nl2]'s. *)

val engine_random_netlists :
  ?passes:int ->
  ?cycles:int ->
  ?seed:int ->
  (module Hydra_engine.Engine_intf.S) ->
  (module Hydra_engine.Engine_intf.S) ->
  Hydra_netlist.Netlist.t ->
  Hydra_netlist.Netlist.t ->
  seq_result
(** Random sequential equivalence with each side on an arbitrary
    word-parallel engine handle, so a K-word {!Hydra_engine.Slab} can be
    cross-checked against the reference oracle (or any two engines
    against each other).  It is the loop {!wide_random_netlists} runs on
    two 62-lane slab handles, here on a private one-member scheduler.
    Each of [passes] (default 4) passes draws a stimulus cube of
    [max words1 words2] packed words per input per cycle for [cycles]
    (default 32) cycles; an engine with fewer words consumes it in
    multiple reset+replay rounds, so every global lane of the wider
    engine is compared against an independent simulation on the
    narrower one.  Netlists are validated first, as in
    {!wide_random_netlists}; with 1-word engines on both sides the
    stimulus is identical to {!wide_random_netlists} at the same
    [seed].  The reported mismatch is the first in (pass, cycle, output,
    word) order. *)

val slab_vs_wide :
  ?passes:int ->
  ?cycles:int ->
  ?seed:int ->
  ?k:int ->
  Hydra_netlist.Netlist.t ->
  seq_result
(** [slab_vs_wide nl]: {!engine_random_netlists} of the same netlist on
    {!Hydra_engine.Slab} ([?k] words, default 8) versus
    {!Hydra_engine.Engine_intf.oracle}, the packed reference simulator
    that shares no code with the compiled kernels — the acceptance check
    that every slab word of every flavor simulates exactly the 62-lane
    semantics. *)

val seq_equivalent : seq_result -> bool

val certify_patch :
  ?passes:int ->
  ?cycles:int ->
  ?seed:int ->
  Hydra_engine.Kernel.program ->
  Hydra_analyze.Certify.outcome
(** Translation-validate an incrementally patched program (the output of
    {!Hydra_engine.Kernel.patch}): validate its netlist, then run the
    patched kernel (a {!Hydra_engine.Slab} of the program's [k]) against
    an independent fresh full compile of the same netlist at [k = 1] on
    the loop of {!engine_random_netlists} ([?passes] default 4,
    [?cycles] default 32), which does not validate the netlist again.  [Certified] names the checks performed; a behavioural
    divergence is [Refuted] with a replayable counterexample, exactly
    like the compile-time pass certificates. *)

val is_equivalent : result -> bool
