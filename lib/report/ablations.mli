(** Ablation studies for the design choices DESIGN.md calls out.

    Each study sweeps one implementation mechanism and reports the SimBench
    benchmarks that mechanism is supposed to dominate — the suite validating
    the simulators, exactly as the paper uses it.  A study is data: a
    {!spec} names its benchmarks and its variant columns, and {!sweep}
    measures and renders any of them. *)

type spec = {
  name : string;  (** the experiment name, e.g. ["abl-traces"] *)
  title : string;  (** the paragraph printed above the table *)
  benches : Simbench.Bench.t list;  (** the table's rows *)
  iters : int option;
      (** a fixed iteration count; [None] is the Figure 3 count divided by
          the config's [scale], floored at 1000 *)
  variants : (string * (unit -> Sb_sim.Engine.t)) list;
      (** the table's columns: a label and the engine it measures, built
          when the column runs *)
}

val sweep :
  ?opts:Experiments.run_opts -> config:Experiments.config -> spec -> string
(** Measure every bench under every variant on the SBA guest with
    {!Experiments.measure} (the config's [repeats]; [scale] only through
    the default iteration count) and render the table of kernel seconds.
    Each variant column is one {!Sb_jobs.Pool} task run with [opts]
    (default {!Experiments.sequential}); the engines are closures, so
    ablation cells are forked but never disk-cached.  Every row goes to
    {!Experiments.record} with the engine label [<name>:<column>] (for
    example ["abl-traces:thr=4"]), so [--json] output and the regression
    gates see it; a lost column records failure rows and renders as
    ["-"]. *)

val all : spec list
(** The seven studies, in report order: [abl-chain] (DBT block
    chaining), [abl-tlb] (page-cache geometry and lazy flush), [abl-opt]
    (optimiser pass budget), [abl-traces] (hot-trace superblocks, see
    docs/traces.md), [abl-threaded] (token-threaded code generation and
    the trace-scope register cache, see docs/threaded.md), [abl-vmexit]
    (virtualization exit cost) and [abl-predecode] (interpreter
    pre-decoding). *)
