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
(** Measure every bench under every variant on the SBA guest and render
    the table of kernel seconds.  Each variant is one unkeyed
    {!Experiments.column} passed to {!Experiments.columns} with [opts]
    (default {!Experiments.sequential}) and the config's [repeats] ([scale]
    counts only through the default iteration count).  The engines are
    closures, so the columns run every time, are never memoized or
    disk-cached, and always run cold: the config's [switch_at] is
    ignored.  Every row goes to {!Experiments.record} with the engine
    label [<name>:<column>] (for example ["abl-traces:thr=4"]), so
    [--json] output and the regression gates see it; a lost column
    records failure rows and renders as ["-"]. *)

val all : spec list
(** The seven studies, in report order: [abl-chain] (DBT block
    chaining), [abl-tlb] (page-cache geometry and lazy flush), [abl-opt]
    (optimiser pass budget), [abl-traces] (hot-trace superblocks, see
    docs/traces.md), [abl-threaded] (token-threaded code generation and
    the trace-scope register cache, see docs/threaded.md), [abl-vmexit]
    (virtualization exit cost) and [abl-predecode] (interpreter
    pre-decoding). *)
