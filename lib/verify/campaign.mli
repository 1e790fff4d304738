(** Lane-parallel fault-injection campaigns: lane 0 of a
    {!Hydra_engine.Slab} runs the golden circuit while every other lane
    (61 per engine word) runs a distinct fault injected at runtime
    through per-lane force masks — no per-fault netlist rewriting or
    recompilation.
    Fault lists larger than one engine pass chunk over
    {!Hydra_engine.Scheduler.run_tasks}; a chunk of SEUs starts at its
    first upset, and a chunk stops once half its faults have a final
    verdict, its survivors packed into fuller chunks that resume from
    their migrated state. *)

type fault =
  | Stuck_at of { site : int; value : bool }
      (** the component's output is forced to [value] on every cycle *)
  | Seu of { site : int; at_cycle : int }
      (** single-event upset: the dff's state bit is flipped just before
          the settle of [at_cycle] (scheduled past the run window, it
          never fires and classifies masked; a negative [at_cycle] is
          rejected) *)
  | Intermittent of { site : int; rate : float; seed : int }
      (** each cycle, with probability [rate], the output is inverted
          for that whole cycle; the coin stream is seeded per fault so
          results are independent of chunk/domain assignment *)

type classification =
  | Detected of { latency : int; cycle : int; output : string }
      (** first observable output divergence from the golden lane:
          which output, at which cycle, and [cycle - injection_cycle] *)
  | Latent
      (** outputs never diverged within the window but some dff's
          {e final} state did — a healed upset (e.g. an ECC reload)
          counts as masked, not latent *)
  | Masked  (** no divergence at all *)

type verdict = {
  fault : fault;
  name : string;  (** {!fault_name} *)
  classification : classification;
  status : (string * bool) list;
      (** per [status_outputs] flag: ever asserted on this fault's lane *)
}

type report = {
  netlist : Hydra_netlist.Netlist.t;
  stimulus : (string * bool list) list;
      (** kept verbatim so any verdict can be {!replay}ed *)
  cycles : int;
  total : int;
  detected : int;
  latent : int;
  masked : int;
  verdicts : verdict list;  (** in the caller's fault order *)
  chunk_cycles : int;
      (** engine cycles simulated: every chunk's cycles over all rounds
          plus the shared golden prefix (not part of {!to_json}) *)
  chunks : int;  (** chunks run over all rounds (not part of {!to_json}) *)
  cone_chunks : int;
      (** of those, the chunks that settled only their fanout cone (not
          part of {!to_json}) *)
}

val site_of : fault -> int
val fault_name : Hydra_netlist.Netlist.t -> fault -> string

val all_stuck_at : Hydra_netlist.Netlist.t -> fault list
(** Both stuck-at values on every gate and flip-flop output, in the
    historic {!Fault.all_faults} order (site ascending, stuck-at-0
    first). *)

val dff_sites : Hydra_netlist.Netlist.t -> int list

val all_seu : ?at_cycle:int -> Hydra_netlist.Netlist.t -> fault list
(** One SEU per dff at [at_cycle] (default 0). *)

val seu_sweep : Hydra_netlist.Netlist.t -> cycles:int -> fault list
(** One SEU per dff per injection cycle in [0, cycles): the exhaustive
    single-upset space of a run window. *)

val check_vectors : Hydra_netlist.Netlist.t -> bool list list -> unit
(** Raises [Invalid_argument], naming the row index and both widths, if
    a vector row does not give exactly one value per input port. *)

val stimulus_of_vectors :
  ?cycles_per_vector:int ->
  Hydra_netlist.Netlist.t ->
  bool list list ->
  (string * bool list) list * int
(** Expand test vectors (rows in input-port order, each held
    [cycles_per_vector] cycles, default 1) into per-port stimulus
    streams; also returns the total cycle count.  Rows are checked by
    {!check_vectors}. *)

val random_stimulus :
  seed:int -> cycles:int -> Hydra_netlist.Netlist.t -> (string * bool list) list

val run :
  ?scheduler:Hydra_engine.Scheduler.t ->
  ?cache:Hydra_engine.Cache.t ->
  ?domains:int ->
  ?engine:[ `Wide | `Slab of int ] ->
  ?gating:bool ->
  ?status_outputs:string list ->
  ?deadline:float ->
  ?retry:Hydra_engine.Resilience.retry ->
  ?admission:Hydra_engine.Resilience.admission ->
  ?chaos:Chaos.plan ->
  Hydra_netlist.Netlist.t ->
  faults:fault list ->
  stimulus:(string * bool list) list ->
  cycles:int ->
  report
(** Simulate every fault against the golden lane under [stimulus]
    (per-port bool streams; missing ports idle at false, short streams
    pad with false) for [cycles] cycles from power-up, and classify.
    Raises [Invalid_argument] on a negative [cycles].

    Outputs named in [status_outputs] (e.g. an ECC [single]-error flag)
    are excluded from the divergence comparison and instead sampled as
    ever-asserted per lane into {!verdict.status}.

    The engine is a {!Hydra_engine.Slab} of [k] words: [k = 1] with the
    default [~engine:`Wide], [k] with [~engine:(`Slab k)], so [62*k - 1]
    faults run per engine pass (a whole [all_stuck_at] list often fits
    in one).  Each round of chunks is one {!Hydra_engine.Scheduler}
    job: on [?scheduler]'s shared team (mutually exclusive with
    [?domains]), otherwise on a private scheduler of [?domains] members
    (one member when the list fits one chunk), shut down afterwards.
    Every member runs its chunks on its own replica of the campaign
    engine.  Campaign engines keep the caller's component indices (no
    optimizer, no re-layout); an SEU-only fault list runs them fused,
    any other unfused.  With [?cache] they come from the
    compiled-circuit cache, so repeated campaigns on the same netlist
    skip recompilation.  Verdicts are
    bit-identical in every mode.  [?gating] is accepted and ignored; it
    remains only until the workload benchmark stops passing it (ROADMAP
    item 1, the benchmark change, removes it).  Verdicts are the
    same at every [k] — only the packing changes.  Every engine runs its
    blocks through the C kernel ({!Hydra_engine.Slab.kernel_flavor}),
    vectorized when the build has a vector path.

    Fault dropping: without [status_outputs], a lane's verdict is final
    once it is detected, once an SEU lane's whole state again equals the
    golden lane's (masked), or at a fixed point — the inputs constant to
    the end of the window, neither the golden lane nor the lane latching
    a change, and no intermittent fault or upset still to come.  The last
    two take the end-of-window verdict from the state (latent if a dff
    differs from the golden lane, else masked).  A chunk stops at the
    first cycle boundary where at most half of its faults are still
    unresolved; the survivors' state moves to fuller chunks that resume
    at the next cycle.  A chunk of SEUs starts at its earliest upset,
    from golden state snapshots that one shared fault-free prefix run
    takes first ({!report.chunk_cycles} counts both, and the prefix runs
    to the end of the window when it records a golden trace for cone
    restriction, below).  Verdicts are
    identical to running each fault alone.  With [status_outputs], every
    lane runs the whole window from cycle 0.

    Cone restriction: a fault can change only its fanout cone — the
    components reachable from its site along driver-to-reader edges,
    through dffs.  In a campaign of two or more chunks, a chunk whose
    fault sites (and, in later rounds, the state sites where its
    migrated lanes differ) have a cone of at most an eighth of the
    circuit settles only the cone's gates, every cycle
    ({!Hydra_engine.Slab.settle_cone}).  The values the cone reads from
    outside come from a golden trace, one bit per component and cycle,
    that the fault-free prefix task records when some first-round chunk
    qualifies; outside the cone every lane equals the golden lane, so
    verdicts and status flags are unchanged.  The rule is fixed (no
    knob); {!report.cone_chunks} counts the chunks that used it.

    Resilience knobs: [?deadline] bounds the whole campaign in
    wall-clock seconds: each round's job carries the remaining budget
    and stops claiming chunks once it is spent
    ({!Hydra_engine.Resilience.Deadline_exceeded}).  [?retry] rides on
    the job: chunks whose body raised a transient exception re-run after
    a deterministic backoff (chunks recompute their verdict slice from
    reset, so retried runs stay bit-identical).  [?admission] reserves
    the engine's lane demand against a shared budget: an over-budget
    request is {e degraded} to fewer slab words (same verdicts, smaller
    passes) rather than rejected, and only a budget with less than one
    word free sheds the campaign ({!Hydra_engine.Resilience.Shed}).
    [?chaos] dresses every chunk (and the prefix task) with a seeded
    {!Chaos} injection point — the soak-test harness.

    Raises [Invalid_argument] on an invalid netlist, an out-of-range or
    outport fault site, an SEU site that is not a dff or an SEU before
    cycle 0, an intermittent rate outside [0,1], or stimulus/status
    names not matching the netlist's ports. *)

val replay : report -> fault -> verdict
(** Re-run one fault alone against the report's recorded stimulus and
    window — the reproduction path for a detected verdict. *)

val coverage_ratio : report -> float
(** Detected fraction (1.0 of an empty campaign); latent faults count
    as undetected. *)

val mean_latency : report -> float option
(** Mean detection latency over detected verdicts; [None] if none. *)

val class_string : classification -> string
val verdict_to_string : verdict -> string
val summary_string : report -> string

val to_string : report -> string
(** Summary line plus one line per verdict. *)

val verdict_to_json : verdict -> string

val to_json : report -> string
(** Pinned schema (the [hydra faults --json] contract):
    [{"version":1,"total":…,"detected":…,"latent":…,"masked":…,
    "cycles":…,"verdicts":[{"name":…,"model":…,"site":…,…,
    "class":…,…},…]}]. *)
