(** Stuck-at fault simulation: measure how well a test-vector set
    distinguishes a faulty circuit from a good one — the manufacturing-
    test side of the simulation tooling (paper section 4.2).

    Grading runs on the lane-parallel {!Campaign} engine (61 faults per
    pass, chunked across domains) — no per-fault netlist rewriting or
    recompilation — with results bit-identical to the historic loop,
    which survives as {!coverage_recompile}. *)

type fault = { site : int; stuck : bool }

val fault_name : Hydra_netlist.Netlist.t -> fault -> string

val all_faults : Hydra_netlist.Netlist.t -> fault list
(** Both stuck-at values on every gate and flip-flop output. *)

val inject : Hydra_netlist.Netlist.t -> fault -> Hydra_netlist.Netlist.t
(** Netlist rewriting: the site's consumers read a constant instead, so
    any engine can run the faulty circuit. *)

val response :
  Hydra_netlist.Netlist.t ->
  vectors:bool list list ->
  cycles_per_vector:int ->
  bool list list list
(** Output rows per vector per observation cycle (state carries across
    vectors): the comparison record detection is defined over.  Runs on
    the packed reference simulator ({!Hydra_analyze.Sim}).  Rows are
    checked by {!Campaign.check_vectors}. *)

type coverage = { total : int; detected : int; undetected : fault list }

val ratio : coverage -> float

val coverage :
  ?cycles_per_vector:int ->
  Hydra_netlist.Netlist.t ->
  vectors:bool list list ->
  coverage
(** Fraction of faults whose response to [vectors] (rows in input-port
    order) differs from the good circuit's.  Runs on the {!Campaign}
    engine; bit-identical to {!coverage_recompile}. *)

val coverage_recompile :
  ?cycles_per_vector:int ->
  Hydra_netlist.Netlist.t ->
  vectors:bool list list ->
  coverage
(** The historic implementation — one netlist rewrite and {!response}
    run per fault.  Kept as the bit-identity reference and the benchmark
    baseline. *)

val random_vectors : seed:int -> inputs:int -> int -> bool list list

val generate_tests :
  ?seed:int ->
  ?target:float ->
  ?batch:int ->
  ?max_vectors:int ->
  ?cycles_per_vector:int ->
  Hydra_netlist.Netlist.t ->
  bool list list * coverage
(** Greedy random test generation: grow the vector set until coverage
    reaches [target] or a whole batch detects nothing new.
    [?cycles_per_vector] (default 1) grades sequential circuits on the
    same observation window as {!coverage}; each batch re-simulates only
    the still-undetected faults over the full grown vector list, which
    is bit-identical to grading from scratch (detection is monotone
    under vector-list extension).  Batches grade on one persistent
    {!Hydra_engine.Scheduler} team with campaign engines served by the
    process-wide {!Hydra_engine.Cache}, so repeated generations on the
    same netlist skip recompilation entirely. *)
